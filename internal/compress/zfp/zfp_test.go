package zfp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func smooth3D(n int) *grid.Field {
	f := grid.New(n, n, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				f.Set3(math.Sin(float64(k)/7)+math.Cos(float64(j)/5)*math.Sin(float64(i)/9), k, j, i)
			}
		}
	}
	return f
}

func noisy3D(n int, seed int64) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	f := grid.New(n, n, n)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("expected error for precision 0")
	}
	if _, err := New(61); err == nil {
		t.Fatal("expected error for precision > max")
	}
	c, err := New(16)
	if err != nil || c.Precision() != 16 {
		t.Fatalf("New(16) = %v, %v", c, err)
	}
	if c.Lossless() {
		t.Fatal("zfp must report lossy")
	}
	if c.Name() != "zfp(p=16)" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestLiftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		v := make([]int64, 4)
		orig := make([]int64, 4)
		for i := range v {
			v[i] = int64(rng.Uint64() >> 4) // keep headroom
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
			orig[i] = v[i]
		}
		fwdLift(v, 0, 1)
		invLift(v, 0, 1)
		for i := range v {
			// The >>1 truncations make the pair inexact in the last bits,
			// exactly as in real ZFP; a few ulps of fixed-point error are
			// invisible after the 2^-60 scaling.
			if d := v[i] - orig[i]; d > 4 || d < -4 {
				t.Fatalf("lift round trip [%d]: %d != %d", i, v[i], orig[i])
			}
		}
	}
}

func TestTransformRoundTripAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for rank := 1; rank <= 3; rank++ {
		size := 1 << (2 * uint(rank))
		blk := make([]int64, size)
		orig := make([]int64, size)
		for i := range blk {
			blk[i] = int64(rng.Int63n(1<<55)) - 1<<54
			orig[i] = blk[i]
		}
		transformForward(blk, rank)
		transformInverse(blk, rank)
		for i := range blk {
			// Truncation error grows with the number of lifting passes but
			// stays within a few dozen fixed-point ulps even in 3-D.
			if d := blk[i] - orig[i]; d > 64 || d < -64 {
				t.Fatalf("rank %d transform round trip [%d]: %d != %d", rank, i, blk[i], orig[i])
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	check := func(i int64) bool { return nb2int(int2nb(i)) == i }
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		if nb2int(int2nb(v)) != v {
			t.Fatalf("negabinary round trip failed for %d", v)
		}
	}
}

func TestPlaneCodingRoundTrip(t *testing.T) {
	// Exhaustive for 4-value blocks, random for 64.
	for x := uint64(0); x < 16; x++ {
		for n0 := 0; n0 <= 4; n0++ {
			var w testWriter
			n1 := encodePlane(&w.w, x, 4, n0)
			got, n2, err := decodePlane(w.reader(), 4, n0)
			if err != nil {
				t.Fatal(err)
			}
			if got != x || n1 != n2 {
				t.Fatalf("plane x=%04b n0=%d: got %04b n=%d, want %04b n=%d", x, n0, got, n2, x, n1)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		x := rng.Uint64()
		n0 := rng.Intn(65)
		var w testWriter
		n1 := encodePlane(&w.w, x, 64, n0)
		got, n2, err := decodePlane(w.reader(), 64, n0)
		if err != nil {
			t.Fatal(err)
		}
		if got != x || n1 != n2 {
			t.Fatalf("plane trial %d mismatch", trial)
		}
	}
}

func TestErrorWithinPrecisionBound(t *testing.T) {
	f := smooth3D(16)
	for _, p := range []int{12, 16, 24, 32} {
		c := MustNew(p)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		maxErr := 0.0
		for i := range f.Data {
			if e := math.Abs(f.Data[i] - dec.Data[i]); e > maxErr {
				maxErr = e
			}
		}
		// Block max magnitudes are O(1); truncating to p planes of a
		// 60-bit fixed-point rep bounds the error near 2^(4-p) plus
		// transform amplification.
		bound := math.Ldexp(1, 8-p)
		if maxErr > bound {
			t.Fatalf("precision %d: max error %v exceeds %v", p, maxErr, bound)
		}
	}
}

func TestHigherPrecisionLowerError(t *testing.T) {
	f := noisy3D(12, 7)
	var prev float64 = math.Inf(1)
	for _, p := range []int{8, 16, 24, 32} {
		c := MustNew(p)
		enc, _ := c.Compress(context.Background(), f, parallel.Config{})
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rmse := 0.0
		for i := range f.Data {
			d := f.Data[i] - dec.Data[i]
			rmse += d * d
		}
		rmse = math.Sqrt(rmse / float64(f.Len()))
		if rmse > prev*1.01 {
			t.Fatalf("rmse increased from %v to %v at precision %d", prev, rmse, p)
		}
		prev = rmse
	}
}

func TestSmoothCompressesBetterThanNoise(t *testing.T) {
	c := MustNew(16)
	smoothEnc, err := c.Compress(context.Background(), smooth3D(16), parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	noiseEnc, err := c.Compress(context.Background(), noisy3D(16, 5), parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(smoothEnc) >= len(noiseEnc) {
		t.Fatalf("smooth data (%dB) should compress better than noise (%dB)", len(smoothEnc), len(noiseEnc))
	}
	// And smooth data must actually compress vs the 8-byte raw encoding.
	f := smooth3D(16)
	if r := compress.Ratio(f, smoothEnc); r < 3 {
		t.Fatalf("smooth ratio = %.2f, expected > 3", r)
	}
}

func TestZeroFieldIsTiny(t *testing.T) {
	f := grid.New(16, 16, 16)
	c := MustNew(16)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 64 blocks, 1 bit each, plus header.
	if len(enc) > 64 {
		t.Fatalf("zero field encoded to %d bytes", len(enc))
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Data {
		if v != 0 {
			t.Fatalf("zero field decoded nonzero at %d: %v", i, v)
		}
	}
}

func TestAllRanksAndPartialBlocks(t *testing.T) {
	shapes := [][]int{
		{5}, {16}, {37},
		{5, 7}, {16, 16}, {9, 13},
		{5, 6, 7}, {8, 8, 8}, {3, 3, 3},
	}
	c := MustNew(24)
	rng := rand.New(rand.NewSource(11))
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)/3) * (1 + 0.01*rng.Float64())
		}
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		for i := range f.Data {
			if math.Abs(f.Data[i]-dec.Data[i]) > 1e-4 {
				t.Fatalf("%v: error at %d: %v vs %v", dims, i, f.Data[i], dec.Data[i])
			}
		}
	}
}

func TestWideDynamicRange(t *testing.T) {
	f := grid.New(64)
	for i := range f.Data {
		f.Data[i] = math.Ldexp(1, i-32) // 2^-32 .. 2^31
	}
	c := MustNew(32)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		// Per-block relative accuracy: error scales with the block max.
		blockMax := math.Ldexp(1, (i/4)*4+3-32)
		if math.Abs(f.Data[i]-dec.Data[i]) > blockMax*1e-6 {
			t.Fatalf("dynamic range error at %d: %v vs %v", i, f.Data[i], dec.Data[i])
		}
	}
}

func TestRejectsNaN(t *testing.T) {
	f := grid.New(4)
	f.Data[2] = math.NaN()
	if _, err := MustNew(16).Compress(context.Background(), f, parallel.Config{}); err == nil {
		t.Fatal("expected NaN rejection")
	}
	f.Data[2] = math.Inf(1)
	if _, err := MustNew(16).Compress(context.Background(), f, parallel.Config{}); err == nil {
		t.Fatal("expected Inf rejection")
	}
}

func TestDecompressGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{3, 4, 4, 4}, // header only, no precision/payload
		{1, 8, 0},    // precision 0
		{1, 8, 99},   // absurd precision
	}
	c := MustNew(16)
	for i, b := range cases {
		if _, err := c.Decompress(context.Background(), b, parallel.Config{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Truncated payload.
	f := smooth3D(8)
	enc, _ := c.Compress(context.Background(), f, parallel.Config{})
	if _, err := c.Decompress(context.Background(), enc[:len(enc)/2], parallel.Config{}); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestNegativeValues(t *testing.T) {
	f := grid.New(4, 4)
	for i := range f.Data {
		f.Data[i] = -100.5 + float64(i)
	}
	c := MustNew(32)
	enc, _ := c.Compress(context.Background(), f, parallel.Config{})
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-4 {
			t.Fatalf("negative value error at %d: %v vs %v", i, f.Data[i], dec.Data[i])
		}
	}
}

// testWriter adapts bitstream for the plane tests.
type testWriter struct{ w bitstream.Writer }

func (tw *testWriter) reader() *bitstream.Reader { return bitstream.NewReader(tw.w.Bytes()) }

func TestSequencyPermutations(t *testing.T) {
	for rank := 1; rank <= 3; rank++ {
		p := permFor(rank)
		size := 1 << (2 * uint(rank))
		if len(p) != size {
			t.Fatalf("rank %d: perm length %d", rank, len(p))
		}
		// Must be a permutation.
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				t.Fatalf("rank %d: invalid permutation %v", rank, p)
			}
			seen[v] = true
		}
		// Sequency must be non-decreasing along the order.
		seq := func(i int) int {
			s := 0
			for d := 0; d < rank; d++ {
				s += (i >> (2 * uint(d))) & 3
			}
			return s
		}
		for i := 1; i < size; i++ {
			if seq(p[i]) < seq(p[i-1]) {
				t.Fatalf("rank %d: sequency decreases at %d", rank, i)
			}
		}
		// DC first, highest frequency last.
		if p[0] != 0 || p[size-1] != size-1 {
			t.Fatalf("rank %d: endpoints %d..%d", rank, p[0], p[size-1])
		}
	}
}
