package zfp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/parallel"
)

func TestNewAccuracyValidation(t *testing.T) {
	for _, tol := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewAccuracy(tol); err == nil {
			t.Fatalf("expected error for tolerance %v", tol)
		}
	}
	c := MustNewAccuracy(1e-4)
	if c.Name() != "zfp(a=1e-04)" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Lossless() {
		t.Fatal("accuracy mode is lossy")
	}
}

func TestAccuracyBoundHonoured(t *testing.T) {
	f := smooth3D(16)
	for _, tol := range []float64{1e-1, 1e-3, 1e-6, 1e-9} {
		c := MustNewAccuracy(tol)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			if e := math.Abs(f.Data[i] - dec.Data[i]); e > tol {
				t.Fatalf("tol=%v: error %v at %d exceeds tolerance", tol, e, i)
			}
		}
	}
}

func TestAccuracyBoundOnWideDynamicRange(t *testing.T) {
	// The accuracy guarantee is absolute, so blocks far below the tolerance
	// must cost almost nothing while large blocks stay within bound.
	f := noisy3D(12, 3)
	for i := range f.Data {
		f.Data[i] *= math.Ldexp(1, (i%40)-20) // magnitudes 2^-20..2^19
	}
	tol := 1e-3
	c := MustNewAccuracy(tol)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if e := math.Abs(f.Data[i] - dec.Data[i]); e > tol {
			t.Fatalf("error %v at %d exceeds tolerance", e, i)
		}
	}
}

func TestAccuracyLooserToleranceSmallerStream(t *testing.T) {
	f := noisy3D(16, 9)
	var prev int = 1 << 30
	for _, tol := range []float64{1e-9, 1e-6, 1e-3, 1e-1} {
		enc, err := MustNewAccuracy(tol).Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > prev {
			t.Fatalf("tol=%v produced larger stream (%d) than tighter tolerance (%d)", tol, len(enc), prev)
		}
		prev = len(enc)
	}
}

func TestAccuracySmallMagnitudeBlocksNearlyFree(t *testing.T) {
	// A field whose values sit far below the tolerance compresses to
	// almost nothing (each block still pays its 16-bit header).
	f := smooth3D(16)
	for i := range f.Data {
		f.Data[i] *= 1e-9
	}
	enc, err := MustNewAccuracy(1.0).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := 4 * 4 * 4
	// Header (~4B) + per block 1 flag bit + 15-bit exponent = 2 bytes.
	if len(enc) > 8+3*blocks {
		t.Fatalf("sub-tolerance field encoded to %d bytes", len(enc))
	}
}

func TestAccuracyModeStreamGarbage(t *testing.T) {
	c := MustNew(16)
	cases := [][]byte{
		{1, 4, 1},                               // accuracy mode, missing tolerance
		{1, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0},       // tolerance = 0
		{1, 4, 7, 0},                            // unknown mode
		{1, 4, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, // tolerance = +Inf
	}
	for i, b := range cases {
		if _, err := c.Decompress(context.Background(), b, parallel.Config{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestAccuracyCrossModeDecode(t *testing.T) {
	// Streams are self-describing: a precision-configured codec must decode
	// an accuracy-mode stream and vice versa.
	f := smooth3D(8)
	encA, err := MustNewAccuracy(1e-5).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := MustNew(8).Decompress(context.Background(), encA, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-5 {
			t.Fatalf("cross-mode decode violated bound at %d", i)
		}
	}
	encP, err := MustNew(24).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MustNewAccuracy(1).Decompress(context.Background(), encP, parallel.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyRandomizedBoundQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(14)
		f := noisy3D(n, int64(trial))
		tol := math.Ldexp(1, -rng.Intn(30))
		c := MustNewAccuracy(tol)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range f.Data {
			if e := math.Abs(f.Data[i] - dec.Data[i]); e > tol {
				t.Fatalf("trial %d (n=%d tol=%v): error %v at %d", trial, n, tol, e, i)
			}
		}
	}
}
