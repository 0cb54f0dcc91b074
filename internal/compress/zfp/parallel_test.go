package zfp

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/parallel"
)

// TestParallelByteIdentity is the codec-level golden test: every mode must
// emit the identical bit stream at any worker count, and decode the
// parallel-produced stream to the identical field with any worker count.
func TestParallelByteIdentity(t *testing.T) {
	shapes := [][]int{{5}, {64}, {257}, {7, 9}, {16, 16}, {4, 4, 4}, {9, 10, 11}}
	codecs := []*Codec{
		MustNew(16),
		MustNew(32),
		MustNewAccuracy(1e-4),
		MustNewRate(12),
	}
	rng := rand.New(rand.NewSource(7))
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Sin(float64(i)/7) * math.Exp(rng.Float64())
		}
		for _, c := range codecs {
			want, err := c.Compress(context.Background(), f, parallel.Config{Workers: 1})
			if err != nil {
				t.Fatalf("%s %v: serial: %v", c.Name(), dims, err)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := c.Compress(context.Background(), f, parallel.Config{Workers: w})
				if err != nil {
					t.Fatalf("%s %v w=%d: %v", c.Name(), dims, w, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v: workers=%d stream differs from serial", c.Name(), dims, w)
				}
				dec1, err := c.Decompress(context.Background(), want, parallel.Config{Workers: 1})
				if err != nil {
					t.Fatalf("%s %v: serial decompress: %v", c.Name(), dims, err)
				}
				decW, err := c.Decompress(context.Background(), want, parallel.Config{Workers: w})
				if err != nil {
					t.Fatalf("%s %v w=%d: decompress: %v", c.Name(), dims, w, err)
				}
				for i := range dec1.Data {
					if math.Float64bits(dec1.Data[i]) != math.Float64bits(decW.Data[i]) {
						t.Fatalf("%s %v w=%d: decoded value %d differs bitwise", c.Name(), dims, w, i)
					}
				}
			}
		}
	}
}

// TestParallelDecodeFallsBackUnderAllocCap pins the one schedule choice zfp
// decode keeps: the parallel schedule buffers every parsed block, which for
// a degenerate shape is far larger than the field. A {256,1,1} field is 64
// rank-3 blocks of 64 coefficients holding 4 samples each, so its 32 KiB
// parsed-block buffer exceeds an 8 KiB decode cap that its 2 KiB field fits
// under. Decode at Workers: 4 must then fall back to the per-block schedule
// — no pool tasks — and equal the Workers: 1 decode.
func TestParallelDecodeFallsBackUnderAllocCap(t *testing.T) {
	pm := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(pm) })
	f := grid.New(256, 1, 1)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 9)
	}
	c := MustNew(16)
	ctx := context.Background()
	stream, err := c.Compress(ctx, f, parallel.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Decompress(ctx, stream, parallel.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	prev := compress.SetDecodeAllocCap(8 << 10)
	t.Cleanup(func() { compress.SetDecodeAllocCap(prev) })
	tasks := obs.GetCounter("parallel.tasks")
	t0 := tasks.Value()
	got, err := c.Decompress(ctx, stream, parallel.Config{Workers: 4, MinShardBytes: -1})
	if err != nil {
		t.Fatalf("decode under the cap: %v", err)
	}
	if dt := tasks.Value() - t0; dt != 0 {
		t.Errorf("decode under the cap ran %d pool tasks, want the per-block schedule (0)", dt)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("fallback decode differs from Workers: 1")
	}
}

// TestParallelDecodeMatchesSerialOnDamagedStreams decodes intact, truncated
// and bit-flipped streams of a field spanning many parse groups on the
// one-worker schedule and on the pipelined parallel one: both must return
// the same error text, or the same bits.
func TestParallelDecodeMatchesSerialOnDamagedStreams(t *testing.T) {
	f := goldenSynth(t, 40, 44, 48)
	rng := rand.New(rand.NewSource(50))
	ctx := context.Background()
	for _, c := range []*Codec{MustNew(16), MustNewAccuracy(1e-7)} {
		enc, err := c.Compress(ctx, f, parallel.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		streams := [][]byte{enc}
		for i := 0; i < 8; i++ {
			streams = append(streams, enc[:rng.Intn(len(enc))])
			flipped := bytes.Clone(enc)
			flipped[16+rng.Intn(len(enc)-16)] ^= 1 << uint(rng.Intn(8))
			streams = append(streams, flipped)
		}
		for si, s := range streams {
			want, wantErr := c.Decompress(ctx, s, parallel.Config{Workers: 1})
			for _, w := range []int{2, 8} {
				got, err := c.Decompress(ctx, s, parallel.Config{Workers: w, MinShardBytes: -1})
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s stream %d workers=%d: error %v, serial %v", c.Name(), si, w, err, wantErr)
				}
				if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s stream %d workers=%d: decoded bits differ from serial", c.Name(), si, w)
				}
			}
		}
	}
}
