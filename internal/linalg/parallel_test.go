package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/parallel"
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

// mulReference is the serial product loop the sharded Mul must reproduce.
func mulReference(m, b *Matrix) *Matrix {
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
	return out
}

// covarianceReference is the serial covariance loop the sharded kernel
// replaced: each observation row is centered into a scratch row and its
// products accumulated into the upper triangle, then mirrored.
func covarianceReference(m *Matrix) *Matrix {
	means := ColumnMeans(m)
	n := m.Cols
	cov := NewMatrix(n, n)
	denom := float64(m.Rows - 1)
	if m.Rows < 2 {
		denom = 1
	}
	// Accumulate upper triangle row-by-row.
	row := make([]float64, n)
	for i := 0; i < m.Rows; i++ {
		src := m.Data[i*n : (i+1)*n]
		for j := range src {
			row[j] = src[j] - means[j]
		}
		for a := 0; a < n; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			crow := cov.Data[a*n : (a+1)*n]
			for b := a; b < n; b++ {
				crow[b] += va * row[b]
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			v := cov.At(a, b) / denom
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// shardedConfigs are the budgets the kernels must be bitwise stable
// under: MinShardBytes -1 makes every shape, however small, shard across
// all w workers.
func shardedConfigs() []parallel.Config {
	var out []parallel.Config
	for _, w := range []int{1, 2, 3, 8} {
		out = append(out, parallel.Config{Workers: w, MinShardBytes: -1})
	}
	return append(out, parallel.Config{})
}

// TestMulBitwiseEqual: row-sharded matmul preserves the per-element
// accumulation order, so results are bitwise identical to the serial
// loop — not merely close — at every worker count and shape.
func TestMulBitwiseEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct{ m, k, n int }{
		{3, 4, 5},
		{64, 80, 70},
		{1, 128, 64}, // single row: one shard at any worker count
	}
	for _, s := range shapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		want := mulReference(a, b)
		for _, cfg := range shardedConfigs() {
			got, err := a.Mul(b, cfg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			requireBitwiseEqual(t, fmt.Sprintf("mul %dx%dx%d %+v", s.m, s.k, s.n, cfg), want, got)
		}
	}
}

// TestCovarianceBitwiseEqual: the sharded covariance (centering +
// upper-triangle accumulation) must match the serial loop bit for bit.
func TestCovarianceBitwiseEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range []struct{ rows, cols int }{{5, 4}, {200, 40}, {2, 64}, {301, 37}, {1003, 24}, {1, 5}, {7, 1}} {
		m := randMatrix(rng, s.rows, s.cols)
		want := covarianceReference(m)
		for _, cfg := range shardedConfigs() {
			requireBitwiseEqual(t, fmt.Sprintf("cov %dx%d %+v", s.rows, s.cols, cfg), want, Covariance(m, cfg))
		}
	}
}

// BenchmarkCovariance times the covariance of smooth matrices at the
// benchmark's matricizations (Heat3d 64³, model-select's 1600×40, the
// Umbrella frames' 140×126 and 81×80) plus a narrow 2160×3, serially and
// on the default budget.
func BenchmarkCovariance(b *testing.B) {
	for _, s := range []struct{ rows, cols int }{{4096, 64}, {1600, 40}, {140, 126}, {81, 80}, {2160, 3}} {
		m := smoothMatrix(s.rows, s.cols)
		for _, c := range []struct {
			name string
			cfg  parallel.Config
		}{{"w1", parallel.Config{Workers: 1}}, {"default", parallel.Config{}}} {
			b.Run(fmt.Sprintf("%dx%d/%s", s.rows, s.cols, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Covariance(m, c.cfg)
				}
			})
		}
	}
}
