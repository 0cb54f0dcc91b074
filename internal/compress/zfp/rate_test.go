package zfp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func TestNewRateValidation(t *testing.T) {
	for _, r := range []int{0, -1, 63, 100} {
		if _, err := NewRate(r); err == nil {
			t.Fatalf("expected rejection for rate %d", r)
		}
	}
	c := MustNewRate(8)
	if c.Rate() != 8 || c.Name() != "zfp(r=8)" || c.Lossless() {
		t.Fatalf("codec = %+v name=%q", c, c.Name())
	}
}

func TestRateExactStreamSize(t *testing.T) {
	// The defining property: stream size depends only on dims and rate.
	for _, rate := range []int{2, 8, 16, 32} {
		c := MustNewRate(rate)
		smooth, err := c.Compress(context.Background(), smooth3D(16), parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		noise, err := c.Compress(context.Background(), noisy3D(16, 4), parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(smooth) != len(noise) {
			t.Fatalf("rate %d: smooth %dB != noise %dB (must be content independent)",
				rate, len(smooth), len(noise))
		}
		// 64 blocks x rate*64 bits + header.
		wantPayload := (64*rate*64 + 7) / 8
		hdr := len(smooth) - wantPayload
		if hdr < 4 || hdr > 8 {
			t.Fatalf("rate %d: stream %dB, payload should be %dB", rate, len(smooth), wantPayload)
		}
	}
}

func TestRateRoundTripQuality(t *testing.T) {
	f := smooth3D(16)
	var prevRMSE = math.Inf(1)
	for _, rate := range []int{4, 8, 16, 32} {
		c := MustNewRate(rate)
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
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
		if rmse > prevRMSE*1.01 {
			t.Fatalf("rate %d: RMSE %v did not improve on %v", rate, rmse, prevRMSE)
		}
		prevRMSE = rmse
	}
	// At 32 bits/value the reconstruction must be tight.
	if prevRMSE > 1e-6 {
		t.Fatalf("rate-32 RMSE %v too high", prevRMSE)
	}
}

func TestRateAllRanksAndPartialBlocks(t *testing.T) {
	c := MustNewRate(16)
	for _, dims := range [][]int{{7}, {33}, {6, 9}, {17, 5}, {5, 6, 7}} {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i) / 5)
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
			if math.Abs(f.Data[i]-dec.Data[i]) > 1e-2 {
				t.Fatalf("%v: error at %d: %v vs %v", dims, i, f.Data[i], dec.Data[i])
			}
		}
	}
}

func TestRateZeroBlocks(t *testing.T) {
	f := grid.New(8, 8, 8)
	c := MustNewRate(8)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
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

func TestDecodeAtMatchesFullDecode(t *testing.T) {
	f := smooth3D(16)
	c := MustNewRate(16)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		k, j, i := rng.Intn(16), rng.Intn(16), rng.Intn(16)
		got, err := c.DecodeAt(enc, k, j, i)
		if err != nil {
			t.Fatal(err)
		}
		want := full.At3(k, j, i)
		if got != want {
			t.Fatalf("DecodeAt(%d,%d,%d) = %v, full decode = %v", k, j, i, got, want)
		}
	}
}

func TestDecodeAtLowerRanks(t *testing.T) {
	c := MustNewRate(24)
	f1 := grid.New(37)
	for i := range f1.Data {
		f1.Data[i] = float64(i) * 1.5
	}
	enc, err := c.Compress(context.Background(), f1, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := c.Decompress(context.Background(), enc, parallel.Config{})
	for i := 0; i < 37; i += 5 {
		got, err := c.DecodeAt(enc, i)
		if err != nil {
			t.Fatal(err)
		}
		if got != full.Data[i] {
			t.Fatalf("1-D DecodeAt(%d) = %v, want %v", i, got, full.Data[i])
		}
	}

	f2 := grid.New(9, 13)
	for i := range f2.Data {
		f2.Data[i] = math.Cos(float64(i) / 7)
	}
	enc2, err := c.Compress(context.Background(), f2, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	full2, _ := c.Decompress(context.Background(), enc2, parallel.Config{})
	for j := 0; j < 9; j += 2 {
		for i := 0; i < 13; i += 3 {
			got, err := c.DecodeAt(enc2, j, i)
			if err != nil {
				t.Fatal(err)
			}
			if got != full2.At2(j, i) {
				t.Fatalf("2-D DecodeAt(%d,%d) mismatch", j, i)
			}
		}
	}
}

func TestDecodeAtValidation(t *testing.T) {
	c := MustNewRate(8)
	f := smooth3D(8)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeAt(enc, 1, 2); err == nil {
		t.Fatal("expected rank-mismatch rejection")
	}
	if _, err := c.DecodeAt(enc, 1, 2, 99); err == nil {
		t.Fatal("expected out-of-range rejection")
	}
	// Non-rate stream.
	pEnc, err := MustNew(16).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeAt(pEnc, 1, 2, 3); err == nil {
		t.Fatal("expected non-rate-stream rejection")
	}
	// Truncated stream.
	if _, err := c.DecodeAt(enc[:len(enc)/2], 7, 7, 7); err == nil {
		t.Fatal("expected truncation rejection")
	}
}

func TestRateCrossModeDecodeDispatch(t *testing.T) {
	// Any codec instance must decode a rate stream (self-describing).
	f := smooth3D(8)
	enc, err := MustNewRate(16).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := MustNew(8).Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Abs(f.Data[i]-dec.Data[i]) > 1e-2 {
			t.Fatal("cross-mode rate decode broken")
		}
	}
}
