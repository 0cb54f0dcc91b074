package zfp

import (
	"context"
	"errors"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// TestDecompressEveryPrefix asserts the decode contract on truncation across
// all three modes (precision, accuracy, fixed rate): every strict prefix of
// a valid stream must fail with an error wrapping compress.ErrTruncated or
// compress.ErrCorrupt — never panic, never decode to a field.
func TestDecompressEveryPrefix(t *testing.T) {
	f := grid.New(10, 6)
	for j := 0; j < 10; j++ {
		for i := 0; i < 6; i++ {
			f.Set2(float64(j)*0.2-float64(i)*0.4, j, i)
		}
	}
	for _, c := range []*Codec{
		MustNew(14),
		MustNewAccuracy(1e-4),
		MustNewRate(10),
	} {
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for n := 0; n < len(enc); n++ {
			_, err := c.Decompress(context.Background(), enc[:n], parallel.Config{})
			if err == nil {
				t.Fatalf("%s: prefix %d/%d decoded without error", c.Name(), n, len(enc))
			}
			if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
				t.Fatalf("%s: prefix %d/%d: unclassified error: %v", c.Name(), n, len(enc), err)
			}
		}
	}
}
