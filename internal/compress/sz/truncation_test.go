package sz

import (
	"context"
	"errors"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// TestDecompressEveryPrefix asserts the decode contract on truncation: every
// strict prefix of a valid stream, in every mode, must fail with an error
// wrapping compress.ErrTruncated or compress.ErrCorrupt — never panic, never
// decode to a field.
func TestDecompressEveryPrefix(t *testing.T) {
	f := grid.New(9, 7)
	for j := 0; j < 9; j++ {
		for i := 0; i < 7; i++ {
			f.Set2(float64(j)*0.3+float64(i)*0.1, j, i)
		}
	}
	for _, c := range []*Codec{
		MustNew(Abs, 1e-4),
		MustNew(ValueRangeRel, 1e-4),
		MustNew(PointwiseRel, 1e-3),
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
