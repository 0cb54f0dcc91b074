package sz

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func smooth2D(n int) *grid.Field {
	f := grid.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			f.Set2(100+10*math.Sin(float64(j)/9)*math.Cos(float64(i)/7), j, i)
		}
	}
	return f
}

func TestNewValidation(t *testing.T) {
	for _, b := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(Abs, b); err == nil {
			t.Fatalf("expected error for bound %v", b)
		}
	}
	if _, err := New(Mode(9), 0.1); err == nil {
		t.Fatal("expected error for unknown mode")
	}
	c := MustNew(Abs, 1e-5)
	if c.Lossless() {
		t.Fatal("sz must report lossy")
	}
	if c.Mode() != Abs || c.Bound() != 1e-5 {
		t.Fatal("accessors broken")
	}
	if c.Name() != "sz(abs=1e-05)" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestAbsBoundHonoured(t *testing.T) {
	f := smooth2D(48)
	for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
		c := MustNew(Abs, eb)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			if math.Abs(f.Data[i]-dec.Data[i]) > eb*(1+1e-12) {
				t.Fatalf("eb=%v: error %v at %d exceeds bound", eb, math.Abs(f.Data[i]-dec.Data[i]), i)
			}
		}
	}
}

func TestAbsBoundOnRoughData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := grid.New(10, 10, 10)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * 1000
	}
	eb := 0.5
	c := MustNew(Abs, eb)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > eb*(1+1e-12) {
			t.Fatalf("error at %d exceeds bound", i)
		}
	}
}

func TestValueRangeRelBound(t *testing.T) {
	f := smooth2D(32)
	lo, hi := f.MinMax()
	rel := 1e-4
	c := MustNew(ValueRangeRel, rel)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bound := rel * (hi - lo)
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > bound*(1+1e-12) {
			t.Fatalf("range-rel error at %d exceeds %v", i, bound)
		}
	}
}

func TestPointwiseRelBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := grid.New(40, 40)
	for i := range f.Data {
		// Mix of magnitudes, signs, and exact zeros.
		switch rng.Intn(5) {
		case 0:
			f.Data[i] = 0
		case 1:
			f.Data[i] = -math.Exp(rng.Float64()*20 - 10)
		default:
			f.Data[i] = math.Exp(rng.Float64()*20 - 10)
		}
	}
	rel := 1e-3
	c := MustNew(PointwiseRel, rel)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		v, d := f.Data[i], dec.Data[i]
		if v == 0 {
			if d != 0 {
				t.Fatalf("zero not preserved at %d: %v", i, d)
			}
			continue
		}
		if math.Abs(d-v) > rel*math.Abs(v)*(1+1e-9) {
			t.Fatalf("pw-rel error at %d: %v vs %v (rel %v)", i, d, v, math.Abs(d-v)/math.Abs(v))
		}
		if math.Signbit(d) != math.Signbit(v) {
			t.Fatalf("sign flipped at %d", i)
		}
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	f := smooth2D(64)
	c := MustNew(Abs, 1e-3)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pure Lorenzo prediction (no curve-fitting selection) at a modest
	// bound: expect a clear win over the 8-byte raw encoding.
	if r := compress.Ratio(f, enc); r < 5 {
		t.Fatalf("smooth ratio = %.2f, expected > 5", r)
	}
}

func TestSmootherDataHigherRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	smooth := smooth2D(48)
	noisy := grid.New(48, 48)
	for i := range noisy.Data {
		noisy.Data[i] = rng.NormFloat64() * 100
	}
	c := MustNew(Abs, 1e-3)
	se, _ := c.Compress(context.Background(), smooth, parallel.Config{})
	ne, _ := c.Compress(context.Background(), noisy, parallel.Config{})
	if len(se) >= len(ne) {
		t.Fatalf("smooth (%dB) should beat noise (%dB)", len(se), len(ne))
	}
}

func TestConstantField(t *testing.T) {
	f := grid.New(20, 20)
	for i := range f.Data {
		f.Data[i] = 42.5
	}
	for _, c := range []*Codec{MustNew(Abs, 1e-6), MustNew(ValueRangeRel, 1e-5), MustNew(PointwiseRel, 1e-5)} {
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := range f.Data {
			if math.Abs(dec.Data[i]-42.5) > 1e-4 {
				t.Fatalf("%s: constant field corrupted: %v", c.Name(), dec.Data[i])
			}
		}
		if len(enc) > 400 {
			t.Fatalf("%s: constant field encoded to %d bytes", c.Name(), len(enc))
		}
	}
}

func TestAllRanks(t *testing.T) {
	shapes := [][]int{{100}, {17, 23}, {9, 11, 13}}
	c := MustNew(Abs, 1e-5)
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i) / 11)
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
			if math.Abs(f.Data[i]-dec.Data[i]) > 1e-5*(1+1e-12) {
				t.Fatalf("%v: bound violated at %d", dims, i)
			}
		}
	}
}

func TestQuickAbsBound(t *testing.T) {
	check := func(raw []float64, seed int64) bool {
		vals := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e15 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			vals = append(vals, 0)
		}
		f, err := grid.FromData(vals, len(vals))
		if err != nil {
			return false
		}
		eb := 1e-3
		c := MustNew(Abs, eb)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			return false
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Abs(vals[i]-dec.Data[i]) > eb*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsNaN(t *testing.T) {
	f := grid.New(4)
	f.Data[1] = math.NaN()
	if _, err := MustNew(Abs, 1e-3).Compress(context.Background(), f, parallel.Config{}); err == nil {
		t.Fatal("expected NaN rejection")
	}
}

func TestDecompressGarbage(t *testing.T) {
	c := MustNew(Abs, 1e-3)
	cases := [][]byte{
		nil,
		{},
		{1, 4},
		{1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{9, 0, 0},
	}
	for i, b := range cases {
		if _, err := c.Decompress(context.Background(), b, parallel.Config{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	f := smooth2D(16)
	enc, _ := c.Compress(context.Background(), f, parallel.Config{})
	if _, err := c.Decompress(context.Background(), enc[:len(enc)-10], parallel.Config{}); err == nil {
		t.Fatal("expected truncation error")
	}
	// Corrupt the mode byte.
	bad := append([]byte(nil), enc...)
	bad[len(compress.EncodeDimsHeader(f.Dims))] = 200
	if _, err := c.Decompress(context.Background(), bad, parallel.Config{}); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestCrossCodecStreams(t *testing.T) {
	// A stream compressed with one bound must decompress correctly through
	// a codec configured differently (streams are self-describing).
	f := smooth2D(24)
	enc, err := MustNew(Abs, 1e-6).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := MustNew(PointwiseRel, 0.5).Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-6*(1+1e-12) {
			t.Fatal("self-describing decode failed")
		}
	}
}
