package sz

import (
	"context"
	"math"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// FuzzDecompress asserts the sz stream parser never panics on arbitrary
// bytes — on the serial path AND on the worker pool path, which must agree
// bitwise whenever both succeed.
func FuzzDecompress(f *testing.F) {
	field := grid.New(5, 9)
	for i := range field.Data {
		field.Data[i] = float64(i%7) * 1.25
	}
	for _, c := range []*Codec{
		MustNew(Abs, 1e-3),
		MustNew(ValueRangeRel, 1e-4),
		MustNew(PointwiseRel, 1e-3),
		MustNewCurveFit(Abs, 1e-3),
	} {
		enc, err := c.Compress(context.Background(), field, parallel.Config{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(Abs, 1e-3)
		out, err := c.Decompress(context.Background(), data, parallel.Config{Workers: 1})
		if err == nil && out != nil {
			if out.Len() == 0 || out.Len() > 1<<24 {
				t.Fatalf("implausible decode length %d", out.Len())
			}
		}
		outP, errP := c.Decompress(context.Background(), data, parallel.Config{Workers: 8})
		if (err == nil) != (errP == nil) {
			t.Fatalf("serial/parallel decode disagree: %v vs %v", err, errP)
		}
		if err == nil {
			for i := range out.Data {
				if math.Float64bits(out.Data[i]) != math.Float64bits(outP.Data[i]) {
					t.Fatalf("serial/parallel decode differ bitwise at %d", i)
				}
			}
		}
	})
}
