package reduce

import (
	"math"
	"math/rand"
	"testing"
)

// pcaRowsReference is the per-element dot-product reconstruction loop
// pcaRows replaced, kept as its bitwise oracle.
func pcaRowsReference(out []float64, n, col int, means, vecs, scores []float64, k, lo, hi int) {
	w := len(means)
	for r := lo; r < hi; r++ {
		for i := 0; i < w; i++ {
			s := means[i]
			for j := 0; j < k; j++ {
				s += scores[r*k+j] * vecs[i*k+j]
			}
			out[r*n+col+i] = s
		}
	}
}

// pcaRowsInputs draws means, components and scores for an m x w block with
// k components, with magnitudes spread over many binades so rounding
// differences would show.
func pcaRowsInputs(rng *rand.Rand, m, w, k int) (means, vecs, scores []float64) {
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
		}
		return v
	}
	return draw(w), draw(w * k), draw(m * k)
}

// TestPCARowsMatchesReference requires the row-broadcast reconstruction to
// reproduce the dot-product loop bit for bit, on a block placed inside a
// wider output row.
func TestPCARowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, sh := range [][3]int{{1600, 40, 1}, {4096, 64, 1}, {4096, 64, 4}, {140, 126, 10}, {7, 3, 3}} {
		m, w, k := sh[0], sh[1], sh[2]
		means, vecs, scores := pcaRowsInputs(rng, m, w, k)
		n, col := w+5, 3
		got, want := make([]float64, m*n), make([]float64, m*n)
		pcaRows(got, n, col, means, vecs, scores, k, 0, m)
		pcaRowsReference(want, n, col, means, vecs, scores, k, 0, m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%dx%d: element %d = %v, reference %v", m, w, k, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkPCARows times the reconstruction kernel on a 4096x64 block with
// one component, beside the reference loop.
//
//	go test -run '^$' -bench PCARows ./internal/reduce/
func BenchmarkPCARows(b *testing.B) {
	m, w, k := 4096, 64, 1
	means, vecs, scores := pcaRowsInputs(rand.New(rand.NewSource(49)), m, w, k)
	out := make([]float64, m*w)
	for _, impl := range []struct {
		name string
		fn   func(out []float64, n, col int, means, vecs, scores []float64, k, lo, hi int)
	}{{"rows", pcaRows}, {"reference", pcaRowsReference}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(8 * m * w))
			for b.Loop() {
				impl.fn(out, w, 0, means, vecs, scores, k, 0, m)
			}
		})
	}
}
