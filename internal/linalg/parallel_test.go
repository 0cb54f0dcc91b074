package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Sprinkle exact zeros so the zero-skip fast path is exercised: skipping
	// a term must not flip any downstream sign (-0.0 vs +0.0).
	for i := 0; i < len(m.Data); i += 17 {
		m.Data[i] = 0
	}
	return m
}

func requireBitwiseEqual(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x",
				name, i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// TestMulWorkersBitwiseEqual: row-sharded matmul preserves the per-element
// accumulation order, so results are bitwise identical — not merely close —
// at every worker count, above and below the flop gate.
func TestMulWorkersBitwiseEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ m, k, n int }{
		{3, 4, 5},    // tiny: below the parallel gate
		{64, 80, 70}, // above the gate
		{1, 128, 64}, // single row: gate declines
	}
	for _, s := range shapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		want, err := a.MulWorkers(b, 1)
		if err != nil {
			t.Fatalf("serial mul: %v", err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := a.MulWorkers(b, w)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			requireBitwiseEqual(t, "mul", want, got)
		}
		def, err := a.Mul(b)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		requireBitwiseEqual(t, "mul-default", want, def)
	}
}

// TestCovarianceWorkersBitwiseEqual: the sharded covariance (centering +
// upper-triangle accumulation) must match the serial path bit for bit.
func TestCovarianceWorkersBitwiseEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range []struct{ rows, cols int }{{5, 4}, {200, 40}, {2, 64}, {301, 37}, {1003, 24}} {
		m := randMatrix(rng, s.rows, s.cols)
		want := CovarianceWorkers(m, 1)
		for _, w := range []int{2, 4, 8} {
			got := CovarianceWorkers(m, w)
			requireBitwiseEqual(t, "cov", want, got)
		}
		requireBitwiseEqual(t, "cov-default", want, Covariance(m))
	}
}
