// Package stats implements the data-characteristic metrics used throughout
// the paper: byte entropy, byte mean, serial correlation (Fig. 1, Table II),
// value CDFs, and the error metrics (RMSE and friends) of Section V.
package stats

import (
	"math"
	"sort"
)

// ByteEntropy returns the Shannon entropy of the byte histogram of b, in
// bits per byte. The value lies in [0, 8]; 8 means perfectly random bytes.
func ByteEntropy(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var counts [256]int
	for _, c := range b {
		counts[c]++
	}
	n := float64(len(b))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// ByteMean returns the arithmetic mean of the bytes of b. Random data is
// close to 127.5; consistent deviation indicates biased content.
func ByteMean(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	s := 0.0
	for _, c := range b {
		s += float64(c)
	}
	return s / float64(len(b))
}

// SerialCorrelation returns the lag-1 Pearson correlation of consecutive
// bytes of b, in [-1, 1]. Near 0 means each byte is independent of the
// previous one. This is the "serial correlation coefficient" of the paper's
// Fig. 1 (the classic `ent` metric).
func SerialCorrelation(b []byte) float64 {
	n := len(b) - 1
	if n < 1 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x, y := float64(b[i]), float64(b[i+1])
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	fn := float64(n)
	num := sxy - sx*sy/fn
	den := math.Sqrt((sxx - sx*sx/fn) * (syy - sy*sy/fn))
	if den == 0 {
		return 0
	}
	return num / den
}

// CDF returns the empirical cumulative distribution of vals sampled at
// `points` evenly spaced values between min and max (inclusive). It returns
// the sample positions and the cumulative fractions. vals is not modified.
func CDF(vals []float64, points int) (xs, ps []float64) {
	if len(vals) == 0 || points <= 0 {
		return nil, nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	xs = make([]float64, points)
	ps = make([]float64, points)
	for i := 0; i < points; i++ {
		var x float64
		if points == 1 {
			x = hi
		} else {
			x = lo + (hi-lo)*float64(i)/float64(points-1)
		}
		xs[i] = x
		// Number of values <= x.
		k := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
		ps[i] = float64(k) / float64(len(sorted))
	}
	return xs, ps
}

// CDFDistance returns the maximum absolute difference between the empirical
// CDFs of a and b (a two-sample Kolmogorov–Smirnov statistic), a scalar
// summary of how similar two distributions are. 0 means identical.
func CDFDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		var v float64
		if sa[i] <= sb[j] {
			v = sa[i]
			i++
		} else {
			v = sb[j]
			j++
		}
		// Advance past duplicates of v in both.
		for i < len(sa) && sa[i] <= v {
			i++
		}
		for j < len(sb) && sb[j] <= v {
			j++
		}
		fa := float64(i) / float64(len(sa))
		fb := float64(j) / float64(len(sb))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// RMSE returns the root-mean-square error between a and b.
// The slices must have equal length.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: RMSE length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// valueRange returns the min and max of vals (±Inf sentinels for empty
// input), the shared normalisation scan of NRMSE and PSNR.
func valueRange(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// NRMSE returns RMSE normalised by the value range of a.
// It returns RMSE unchanged when a has zero range.
func NRMSE(a, b []float64) float64 {
	r := RMSE(a, b)
	lo, hi := valueRange(a)
	if hi <= lo {
		return r
	}
	return r / (hi - lo)
}

// PSNR returns the peak signal-to-noise ratio in dB of b against reference
// a, using a's value range as the peak. It returns +Inf for identical data.
// A constant (zero-range) reference uses peak 1, mirroring NRMSE's
// fall-back to the unnormalised value — the old behaviour took
// log10(0/r) = -Inf, reporting maximally-bad quality for a reference that
// merely happened to be flat.
func PSNR(a, b []float64) float64 {
	r := RMSE(a, b)
	if r == 0 {
		return math.Inf(1)
	}
	lo, hi := valueRange(a)
	peak := hi - lo
	if peak <= 0 {
		peak = 1
	}
	return 20 * math.Log10(peak/r)
}

// MaxAbsError returns the largest |a[i]-b[i]|.
func MaxAbsError(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: MaxAbsError length mismatch")
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Comparison holds the error metrics of a reconstruction b against its
// reference a, as MaxAbsError, NRMSE and PSNR compute them.
type Comparison struct {
	MaxAbsErr, NRMSE, PSNR float64
}

// Compare computes MaxAbsError, NRMSE and PSNR of b against a in one
// pass. Each result is bit for bit the separate function's: the squared
// errors are summed in the same order and the range uses the same
// math.Min/math.Max scan. The slices must have equal length.
func Compare(a, b []float64) Comparison {
	if len(a) != len(b) {
		panic("stats: Compare length mismatch")
	}
	b = b[:len(a)]
	lo, hi := math.Inf(1), math.Inf(-1)
	m, s := 0.0, 0.0
	for i, x := range a {
		d := x - b[i]
		s += d * d
		if ad := math.Abs(d); ad > m {
			m = ad
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	rmse := 0.0
	if len(a) > 0 {
		rmse = math.Sqrt(s / float64(len(a)))
	}
	c := Comparison{MaxAbsErr: m, NRMSE: rmse, PSNR: math.Inf(1)}
	if hi > lo {
		c.NRMSE = rmse / (hi - lo)
	}
	if rmse != 0 {
		peak := hi - lo
		if peak <= 0 {
			peak = 1
		}
		c.PSNR = 20 * math.Log10(peak/rmse)
	}
	return c
}

// Mean returns the arithmetic mean of vals (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Variance returns the population variance of vals.
func Variance(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := Mean(vals)
	s := 0.0
	for _, v := range vals {
		d := v - m
		s += d * d
	}
	return s / float64(len(vals))
}

// Characteristics bundles the three scalar byte metrics of Fig. 1.
type Characteristics struct {
	ByteEntropy       float64
	ByteMean          float64
	SerialCorrelation float64
}

// Characterize computes the Fig. 1 scalar metrics over a byte buffer.
func Characterize(b []byte) Characteristics {
	return Characteristics{
		ByteEntropy:       ByteEntropy(b),
		ByteMean:          ByteMean(b),
		SerialCorrelation: SerialCorrelation(b),
	}
}

// CharacterizeFloats is Characterize over the little-endian float64 bytes
// of vals, computed from the values without serialising them. The byte
// histogram, byte sums and lag-1 products are exact integers; the
// float64 sums of ByteMean and SerialCorrelation are exact too while they
// stay below 2^53 (fewer than about 1.7·10^10 values), so below that size
// every result is bit for bit Characterize's.
func CharacterizeFloats(vals []float64) Characteristics {
	if len(vals) == 0 {
		return Characteristics{}
	}
	// One histogram per byte lane: a value's bytes land in different
	// tables, so runs of equal exponent bytes do not serialise on one
	// counter.
	var lanes [8][256]uint64
	var sxy, prev uint64 // sum of b[i]*b[i+1]; last byte of the previous value
	for i, v := range vals {
		u := math.Float64bits(v)
		b0, b1, b2, b3 := u&0xff, u>>8&0xff, u>>16&0xff, u>>24&0xff
		b4, b5, b6, b7 := u>>32&0xff, u>>40&0xff, u>>48&0xff, u>>56
		lanes[0][b0]++
		lanes[1][b1]++
		lanes[2][b2]++
		lanes[3][b3]++
		lanes[4][b4]++
		lanes[5][b5]++
		lanes[6][b6]++
		lanes[7][b7]++
		sxy += b0*b1 + b1*b2 + b2*b3 + b3*b4 + b4*b5 + b5*b6 + b6*b7
		if i > 0 {
			sxy += prev * b0
		}
		prev = b7
	}

	var counts [256]int
	var sum, sumSq uint64
	for c := range counts {
		n := uint64(0)
		for l := range lanes {
			n += lanes[l][c]
		}
		counts[c] = int(n)
		sum += n * uint64(c)
		sumSq += n * uint64(c*c)
	}
	nb := 8 * len(vals)
	first, last := math.Float64bits(vals[0])&0xff, prev

	// ByteEntropy over the merged histogram.
	fn := float64(nb)
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / fn
		h -= p * math.Log2(p)
	}

	// SerialCorrelation: x runs over bytes 0..nb-2, y over 1..nb-1.
	sx, sy := float64(sum-last), float64(sum-first)
	sxx, syy := float64(sumSq-last*last), float64(sumSq-first*first)
	fp := float64(nb - 1)
	num := float64(sxy) - sx*sy/fp
	den := math.Sqrt((sxx - sx*sx/fp) * (syy - sy*sy/fp))
	corr := 0.0
	if den != 0 {
		corr = num / den
	}
	return Characteristics{
		ByteEntropy:       h,
		ByteMean:          float64(sum) / fn,
		SerialCorrelation: corr,
	}
}
