package sz

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// TestParallelByteIdentity: the predict–quantize wavefront and the sharded
// Huffman pack must emit the identical stream at every worker count, and
// decode it to the bitwise-identical field. Shapes straddle the wavefront
// gate (small fields decline tiling and stay serial — also identical by
// construction, but exercised here for completeness).
func TestParallelByteIdentity(t *testing.T) {
	shapes := [][]int{{64}, {1000}, {9, 11}, {128, 130}, {24, 25, 26}}
	codecs := []*Codec{
		MustNew(Abs, 1e-4),
		MustNew(ValueRangeRel, 1e-4),
		MustNew(PointwiseRel, 1e-3),
		MustNewCurveFit(Abs, 1e-4),
	}
	rng := rand.New(rand.NewSource(11))
	for _, dims := range shapes {
		f := grid.New(dims...)
		for i := range f.Data {
			f.Data[i] = math.Cos(float64(i)/13) + 0.05*rng.NormFloat64()
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
