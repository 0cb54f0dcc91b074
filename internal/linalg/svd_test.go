package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"lrm/internal/parallel"
)

// svdReference is the original row-major one-sided Jacobi SVD, kept
// verbatim as the bitwise oracle for the column-major kernel in svd.go.
func svdReference(a *Matrix) (*SVDResult, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, errors.New("linalg: SVD of empty matrix")
	}
	if a.Rows < a.Cols {
		r, err := svdReference(a.T())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}

	m, n := a.Rows, a.Cols
	w := a.Clone()
	v := Identity(n)

	// Column-major access helpers over the row-major store.
	colDot := func(p, q int) float64 {
		s := 0.0
		for i := 0; i < m; i++ {
			s += w.Data[i*n+p] * w.Data[i*n+q]
		}
		return s
	}

	scale := a.FrobeniusNorm()
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				alpha := colDot(p, p)
				beta := colDot(q, q)
				gamma := colDot(p, q)
				if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					wp := w.Data[i*n+p]
					wq := w.Data[i*n+q]
					w.Data[i*n+p] = c*wp - s*wq
					w.Data[i*n+q] = s*wp + c*wq
				}
				for i := 0; i < n; i++ {
					vp := v.Data[i*n+p]
					vq := v.Data[i*n+q]
					v.Data[i*n+p] = c*vp - s*vq
					v.Data[i*n+q] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Extract singular values and left vectors.
	sv := make([]float64, n)
	for j := 0; j < n; j++ {
		sv[j] = math.Sqrt(colDot(j, j))
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sv[order[i]] > sv[order[j]] })

	u := NewMatrix(m, n)
	vOut := NewMatrix(n, n)
	sOut := make([]float64, n)
	for newJ, oldJ := range order {
		sOut[newJ] = sv[oldJ]
		if sv[oldJ] > 1e-300*(scale+1) && sv[oldJ] > 0 {
			inv := 1 / sv[oldJ]
			for i := 0; i < m; i++ {
				u.Data[i*n+newJ] = w.Data[i*n+oldJ] * inv
			}
		}
		for i := 0; i < n; i++ {
			vOut.Data[i*n+newJ] = v.Data[i*n+oldJ]
		}
	}
	return &SVDResult{U: u, S: sOut, V: vOut}, nil
}

// rampMatrix is a smooth, Heat3d-like field matricized to rows×cols: a
// Gaussian bump over a gentle linear ramp, so the spectrum decays fast and
// most Jacobi pairs fall below the rotation threshold after a few sweeps.
func rampMatrix(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		x := float64(i)/float64(rows) - 0.4
		for j := 0; j < cols; j++ {
			y := float64(j)/float64(cols) - 0.6
			m.Data[i*cols+j] = math.Exp(-8*(x*x+y*y)) + 0.05*float64(i+j)/float64(rows+cols)
		}
	}
	return m
}

// rankTwoMatrix returns an exactly rank-2 rows×cols product.
func rankTwoMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	u := randomMatrix(rng, rows, 2)
	v := randomMatrix(rng, 2, cols)
	a, _ := u.Mul(v, parallel.Config{})
	return a
}

func requireBitwiseSlice(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// TestSVDMatchesReferenceBitwise: the column-major kernel keeps every
// accumulator's order and every rotation expression, so U, S and V equal
// the row-major reference bit for bit on tall, wide, square, degenerate
// and low-rank inputs.
func TestSVDMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"rand-1600x40", randMatrix(rng, 1600, 40)},
		{"rand-40x1600", randMatrix(rng, 40, 1600)},
		{"ramp-1600x40", rampMatrix(1600, 40)},
		{"ramp-40x1600", rampMatrix(40, 1600)},
		{"umbrella-48x45", randMatrix(rng, 48, 45)},
		{"13x13", randMatrix(rng, 13, 13)},
		{"1x5", randMatrix(rng, 1, 5)},
		{"5x1", randMatrix(rng, 5, 1)},
		{"rank2-60x9", rankTwoMatrix(rng, 60, 9)},
		{"rank2-9x60", rankTwoMatrix(rng, 9, 60)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orig := c.a.Clone()
			want, err := svdReference(c.a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SVD(c.a)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseEqual(t, "U", want.U, got.U)
			requireBitwiseSlice(t, "S", want.S, got.S)
			requireBitwiseEqual(t, "V", want.V, got.V)
			requireBitwiseEqual(t, "input", orig, c.a)
		})
	}
}

// svdDigest hashes the exact bits of U, S and V.
func svdDigest(r *SVDResult) string {
	h := sha256.New()
	var buf [8]byte
	for _, part := range [][]float64{r.U.Data, r.S, r.V.Data} {
		for _, v := range part {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRandSVDPinned pins RandSVD's exact output, which runs the exact SVD
// on its small wide projection B = QᵀA. The digests were produced by the
// row-major reference kernel.
func TestRandSVDPinned(t *testing.T) {
	cases := []struct {
		name           string
		rows, cols     int
		k, over, power int
		seed           int64
		want           string
	}{
		{"tall-200x30", 200, 30, 5, 8, 2, 7, "14187824d72cfa42a1cd0a7406b58726c228ceffbec22b82fa1101764db59bb2"},
		{"wide-40x300", 40, 300, 4, 8, 1, 3, "d2d88b5bb97b07b14542fb957e0e5ec3525cb3566ef55c3192798fa05ec13a0e"},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		a := randMatrix(rng, c.rows, c.cols)
		r, err := RandSVD(a, c.k, c.over, c.power, c.seed, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := svdDigest(r); got != c.want {
			t.Errorf("%s: RandSVD digest %s, want %s", c.name, got, c.want)
		}
	}
}

// svdFactorsCheck asserts the properties every SVD must have on any input:
// finite factors, non-negative descending S, exactly zero U columns where
// σ = 0, and a reconstruction within 1e-8·‖A‖.
func svdFactorsCheck(t *testing.T, a *Matrix) *SVDResult {
	t.Helper()
	r, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]float64{"U": r.U.Data, "S": r.S, "V": r.V.Data} {
		for i, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s[%d] = %v", name, i, v)
			}
		}
	}
	for j, s := range r.S {
		if s < 0 {
			t.Fatalf("negative singular value S[%d] = %v", j, s)
		}
		if j > 0 && s > r.S[j-1] {
			t.Fatalf("singular values not descending: %v", r.S)
		}
		if s != 0 {
			continue
		}
		for i := 0; i < r.U.Rows; i++ {
			if r.U.At(i, j) != 0 {
				t.Fatalf("U[%d,%d] = %v for zero singular value", i, j, r.U.At(i, j))
			}
		}
	}
	rec, err := Reconstruct(r.U, r.S, r.V, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxAbsDiff(a); d > 1e-8*a.FrobeniusNorm() {
		t.Fatalf("reconstruction error %v exceeds 1e-8·‖A‖ = %v", d, 1e-8*a.FrobeniusNorm())
	}
	return r
}

func TestSVDAllZeroMatrix(t *testing.T) {
	r := svdFactorsCheck(t, NewMatrix(7, 4))
	for j, s := range r.S {
		if s != 0 {
			t.Fatalf("S[%d] = %v, want 0", j, s)
		}
	}
}

func TestSVDDuplicateColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomMatrix(rng, 30, 6)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 4, a.At(i, 1))
		a.Set(i, 5, a.At(i, 1))
	}
	r := svdFactorsCheck(t, a)
	if r.S[5] > 1e-12*r.S[0] {
		t.Fatalf("rank-4 input has sigma_5 = %v", r.S[5])
	}
}

func TestSVDConstantColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randomMatrix(rng, 25, 5)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 2, 7.5)
	}
	svdFactorsCheck(t, a)
	// Every column the same constant: rank 1 with σ = c·√(mn).
	c := NewMatrix(12, 4)
	for i := range c.Data {
		c.Data[i] = -3
	}
	r := svdFactorsCheck(t, c)
	if want := 3 * math.Sqrt(12*4); math.Abs(r.S[0]-want) > 1e-12*want {
		t.Fatalf("sigma_0 = %v, want %v", r.S[0], want)
	}
}

// BenchmarkSVD times the exact kernel at the model-select shapes: the
// 1600×40 Heat3d/Astro matricization, its wide transpose, and Umbrella's
// 48×45.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ rows, cols int }{{1600, 40}, {40, 1600}, {48, 45}} {
		a := randMatrix(rng, s.rows, s.cols)
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SVD(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
