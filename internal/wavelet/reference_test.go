package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The functions below are the original per-row, per-column transforms,
// kept verbatim (with their own copies of the step kernels) as the bitwise
// oracle for the allocation-free panel kernels in haar.go and
// nonstandard.go.

func refForwardStep(v []float64, tmp []float64) int {
	n := len(v)
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		a, b := v[2*i], v[2*i+1]
		tmp[i] = (a + b) * invSqrt2
		tmp[low+i] = (a - b) * invSqrt2
	}
	if n%2 == 1 {
		tmp[pairs] = v[n-1]
	}
	copy(v, tmp[:n])
	return low
}

func refInverseStep(v []float64, tmp []float64) {
	n := len(v)
	pairs := n / 2
	low := (n + 1) / 2
	for i := 0; i < pairs; i++ {
		s, d := v[i], v[low+i]
		tmp[2*i] = (s + d) * invSqrt2
		tmp[2*i+1] = (s - d) * invSqrt2
	}
	if n%2 == 1 {
		tmp[n-1] = v[pairs]
	}
	copy(v, tmp[:n])
}

func refForward1D(v []float64) {
	tmp := make([]float64, len(v))
	n := len(v)
	for n >= 2 {
		n = refForwardStep(v[:n], tmp)
	}
}

func refInverse1D(v []float64) {
	tmp := make([]float64, len(v))
	var sizes []int
	n := len(v)
	for n >= 2 {
		sizes = append(sizes, n)
		n = (n + 1) / 2
	}
	for i := len(sizes) - 1; i >= 0; i-- {
		refInverseStep(v[:sizes[i]], tmp)
	}
}

func refForward2D(data []float64, rows, cols int) {
	for r := 0; r < rows; r++ {
		refForward1D(data[r*cols : (r+1)*cols])
	}
	col := make([]float64, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = data[r*cols+c]
		}
		refForward1D(col)
		for r := 0; r < rows; r++ {
			data[r*cols+c] = col[r]
		}
	}
}

func refInverse2D(data []float64, rows, cols int) {
	col := make([]float64, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = data[r*cols+c]
		}
		refInverse1D(col)
		for r := 0; r < rows; r++ {
			data[r*cols+c] = col[r]
		}
	}
	for r := 0; r < rows; r++ {
		refInverse1D(data[r*cols : (r+1)*cols])
	}
}

func refForward2DNonstandard(data []float64, rows, cols int) {
	tmp := make([]float64, max(rows, cols))
	r, c := rows, cols
	for r >= 2 || c >= 2 {
		if c >= 2 {
			for j := 0; j < r; j++ {
				refForwardStep(data[j*cols:j*cols+c], tmp)
			}
			c = (c + 1) / 2
		}
		if r >= 2 {
			col := tmp[:r]
			for i := 0; i < c; i++ {
				for j := 0; j < r; j++ {
					col[j] = data[j*cols+i]
				}
				refForwardStep(col, make([]float64, r))
				for j := 0; j < r; j++ {
					data[j*cols+i] = col[j]
				}
			}
			r = (r + 1) / 2
		}
	}
}

func refInverse2DNonstandard(data []float64, rows, cols int) {
	type level struct {
		r, c   int
		didRow bool
		didCol bool
	}
	var ladder []level
	r, c := rows, cols
	for r >= 2 || c >= 2 {
		lv := level{r: r, c: c}
		if c >= 2 {
			lv.didRow = true
			c = (c + 1) / 2
		}
		if r >= 2 {
			lv.didCol = true
			r = (r + 1) / 2
		}
		ladder = append(ladder, lv)
	}
	tmp := make([]float64, max(rows, cols))
	for i := len(ladder) - 1; i >= 0; i-- {
		lv := ladder[i]
		rr, cc := lv.r, lv.c
		lowC := cc
		if lv.didRow {
			lowC = (cc + 1) / 2
		}
		if lv.didCol {
			col := tmp[:rr]
			for x := 0; x < lowC; x++ {
				for j := 0; j < rr; j++ {
					col[j] = data[j*cols+x]
				}
				refInverseStep(col, make([]float64, rr))
				for j := 0; j < rr; j++ {
					data[j*cols+x] = col[j]
				}
			}
		}
		if lv.didRow {
			for j := 0; j < rr; j++ {
				refInverseStep(data[j*cols:j*cols+cc], tmp)
			}
		}
	}
}

// haarShapes covers odd, 1-wide, 1-tall, partial-panel (cols not a
// multiple of the panel width), narrower-than-a-panel and the 4096×64
// precond-zfp matricization.
var haarShapes = [][2]int{
	{1, 1}, {1, 2}, {2, 1}, {1, 17}, {23, 1}, {2, 2}, {3, 5}, {7, 3},
	{13, 13}, {9, 8}, {8, 9}, {10, 21}, {33, 17}, {64, 64}, {100, 7},
	{257, 40}, {4096, 64},
}

// smoothField is a rows×cols field with a Gaussian bump, so thresholding
// leaves a realistic sparse pattern.
func smoothField(rng *rand.Rand, rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	for r := 0; r < rows; r++ {
		x := float64(r)/float64(rows) - 0.4
		for c := 0; c < cols; c++ {
			y := float64(c)/float64(cols) - 0.55
			data[r*cols+c] = math.Exp(-6*(x*x+y*y)) + 1e-3*rng.NormFloat64()
		}
	}
	return data
}

func requireBitwise(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkTransformPair runs a forward/inverse pair and its reference on the
// same input: forward coefficients must match bit for bit, then the inverse
// of the coefficients as they are and after a 5% threshold must too.
func checkTransformPair(t *testing.T, rows, cols int,
	fwd, inv func([]float64, int, int) error, refFwd, refInv func([]float64, int, int)) {
	rng := rand.New(rand.NewSource(int64(rows*7919 + cols)))
	inputs := map[string][]float64{"smooth": smoothField(rng, rows, cols)}
	noise := make([]float64, rows*cols)
	for i := range noise {
		noise[i] = rng.NormFloat64() * 3
	}
	inputs["noise"] = noise
	for name, in := range inputs {
		want := append([]float64(nil), in...)
		got := append([]float64(nil), in...)
		refFwd(want, rows, cols)
		if err := fwd(got, rows, cols); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, name+"/forward", want, got)
		for _, theta := range []float64{0, 0.05} {
			coeff := append([]float64(nil), want...)
			maxAbs := 0.0
			for _, v := range coeff {
				maxAbs = math.Max(maxAbs, math.Abs(v))
			}
			Threshold(coeff, theta*maxAbs)
			wantInv := append([]float64(nil), coeff...)
			refInv(wantInv, rows, cols)
			if err := inv(coeff, rows, cols); err != nil {
				t.Fatal(err)
			}
			requireBitwise(t, fmt.Sprintf("%s/inverse(theta=%v)", name, theta), wantInv, coeff)
		}
	}
}

// TestHaar2DMatchesReferenceBitwise: the panel column pass and the shared
// scratch keep every element's (a±b)·(1/√2) and the band ladder, so the
// standard decomposition equals the per-column reference bit for bit.
func TestHaar2DMatchesReferenceBitwise(t *testing.T) {
	for _, s := range haarShapes {
		t.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(t *testing.T) {
			checkTransformPair(t, s[0], s[1], Forward2D, Inverse2D, refForward2D, refInverse2D)
		})
	}
}

// TestHaar2DNonstandardMatchesReferenceBitwise is the same contract for
// the pyramid decomposition, whose column steps now run on panels instead
// of a freshly allocated column per step.
func TestHaar2DNonstandardMatchesReferenceBitwise(t *testing.T) {
	for _, s := range haarShapes {
		t.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(t *testing.T) {
			checkTransformPair(t, s[0], s[1], Forward2DNonstandard, Inverse2DNonstandard,
				refForward2DNonstandard, refInverse2DNonstandard)
		})
	}
}

// TestHaar1DMatchesReferenceBitwise covers the exported 1-D transforms.
func TestHaar1DMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64, 100, 4096} {
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		want, got := append([]float64(nil), in...), append([]float64(nil), in...)
		refForward1D(want)
		Forward1D(got)
		requireBitwise(t, fmt.Sprintf("forward n=%d", n), want, got)
		refInverse1D(want)
		Inverse1D(got)
		requireBitwise(t, fmt.Sprintf("inverse n=%d", n), want, got)
	}
}

// BenchmarkHaar2D times the standard decomposition at the precond-zfp
// matricization (4096×64).
func BenchmarkHaar2D(b *testing.B) {
	const rows, cols = 4096, 64
	data := smoothField(rand.New(rand.NewSource(1)), rows, cols)
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		work := make([]float64, len(data))
		for i := 0; i < b.N; i++ {
			copy(work, data)
			if err := Forward2D(work, rows, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inverse", func(b *testing.B) {
		b.ReportAllocs()
		work := make([]float64, len(data))
		for i := 0; i < b.N; i++ {
			copy(work, data)
			if err := Inverse2D(work, rows, cols); err != nil {
				b.Fatal(err)
			}
		}
	})
}
