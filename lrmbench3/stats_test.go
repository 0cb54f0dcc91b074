package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{19, 50, 0},     // 9 beyond the median
		{20, 50, 10},    // 10 beyond
		{199, 95, 0},    // rank 190, 9 beyond
		{200, 95, 190},  // rank 190, 10 beyond
		{999, 99, 0},    // rank 990, 9 beyond
		{1000, 99, 990}, // rank 990, 10 beyond
		{0, 50, 0},
	} {
		got, err := percentile(ramp(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ramp(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}
