package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a percentile must have beyond it before the
// benchmark reports it: with fewer, one stray sample moves the value.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses when fewer than minTail samples lie above the chosen rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if beyond := n - rank; n == 0 || beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, max(0, n-rank), minTail)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two when len is
// even); it is NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spread is judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
