package zfp

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
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
