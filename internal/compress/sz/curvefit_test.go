package sz

import (
	"context"
	"math"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// quadratic returns a piecewise-polynomial 1-D signal: the case the
// quadratic candidate exists for.
func quadratic(n int) *grid.Field {
	f := grid.New(n)
	for i := range f.Data {
		x := float64(i) / 50
		f.Data[i] = 3*x*x - 2*x + 7 + 0.5*math.Sin(x)
	}
	return f
}

func TestCurveFitName(t *testing.T) {
	c := MustNewCurveFit(Abs, 1e-4)
	if c.Name() != "sz(abs=1e-04,cf)" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestCurveFitValidation(t *testing.T) {
	if _, err := NewCurveFit(Abs, 0); err == nil {
		t.Fatal("expected invalid-bound error")
	}
	if _, err := NewCurveFit(Mode(9), 1e-3); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestCurveFitBoundHonoured(t *testing.T) {
	f := quadratic(4000)
	for _, eb := range []float64{1e-2, 1e-5} {
		c := MustNewCurveFit(Abs, eb)
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
				t.Fatalf("eb=%v: bound violated at %d", eb, i)
			}
		}
	}
}

func TestCurveFitBeatsLorenzoOnPolynomialData(t *testing.T) {
	// On smooth polynomial trajectories the higher-order candidates predict
	// far better than the order-1 preceding-neighbour rule.
	f := quadratic(8000)
	eb := 1e-6
	plain, err := MustNew(Abs, eb).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := MustNewCurveFit(Abs, eb).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cf) >= len(plain) {
		t.Fatalf("curve fit (%dB) did not beat Lorenzo (%dB) on polynomial data", len(cf), len(plain))
	}
}

func TestCurveFitSelfDescribingStream(t *testing.T) {
	// A plain-configured codec must decode a curve-fit stream correctly
	// (the flag travels in the stream).
	f := quadratic(500)
	enc, err := MustNewCurveFit(Abs, 1e-4).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := MustNew(PointwiseRel, 1).Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-4*(1+1e-12) {
			t.Fatalf("cross decode violated bound at %d", i)
		}
	}
}

func TestCurveFitMultiDimFallsBackToLorenzo(t *testing.T) {
	// 2-D data must produce identical streams with and without the flag's
	// predictor (modulo the flag byte itself).
	f := smooth2D(24)
	plain, err := MustNew(Abs, 1e-4).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := MustNewCurveFit(Abs, 1e-4).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Same length except possibly deflate differences from the flag byte.
	if len(plain) != len(cf) {
		t.Fatalf("2-D streams differ beyond flag byte: %d vs %d", len(plain), len(cf))
	}
	dec, err := MustNew(Abs, 1).Decompress(context.Background(), cf, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-4*(1+1e-12) {
			t.Fatal("2-D curve-fit decode violated bound")
		}
	}
}

func TestUnknownFlagRejected(t *testing.T) {
	f := quadratic(64)
	enc, err := MustNew(Abs, 1e-3).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The flags byte sits right after dims (1 rank byte + uvarint) + mode.
	bad := append([]byte(nil), enc...)
	// dims header for {64}: rank byte + 1-byte uvarint = 2 bytes; mode at 2;
	// flags at 3.
	bad[3] |= 0x80
	if _, err := MustNew(Abs, 1e-3).Decompress(context.Background(), bad, parallel.Config{}); err == nil {
		t.Fatal("expected unknown-flags error")
	}
}

func TestCurveFitPredictEdgeCases(t *testing.T) {
	// Short prefixes fall back gracefully (no out-of-range access).
	d := []float64{1, 3, 7, 13, 21}
	dims := []int{5}
	for idx := 0; idx < 5; idx++ {
		got := curveFitPredict(d, dims, idx)
		if math.IsNaN(got) {
			t.Fatalf("NaN prediction at %d", idx)
		}
	}
	// On an exactly quadratic sequence (second differences constant), the
	// selected predictor at idx>=4 must be exact.
	q := []float64{0, 1, 4, 9, 16, 25}
	if got := curveFitPredict(q, []int{6}, 5); got != 25 {
		t.Fatalf("quadratic prediction = %v, want 25", got)
	}
}
