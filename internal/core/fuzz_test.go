package core

import (
	"context"
	"testing"

	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/reduce"
)

// FuzzDecompress asserts the archive parser never panics on arbitrary
// bytes: it must either decode cleanly or return an error. The seed corpus
// contains one valid archive per container format and codec family.
func FuzzDecompress(f *testing.F) {
	field := grid.New(8, 8)
	for i := range field.Data {
		field.Data[i] = float64(i%13) * 0.5
	}
	seeds := [][]byte{}
	for _, opts := range []Options{
		{DataCodec: zfp.MustNew(12)},
		{DataCodec: sz.MustNew(sz.Abs, 1e-3)},
		{DataCodec: fpc.MustNew(8)},
		{Model: reduce.OneBase{}, DataCodec: zfp.MustNew(12)},
		{Model: reduce.PCA{}, DataCodec: sz.MustNew(sz.Abs, 1e-3)},
	} {
		res, err := Compress(context.Background(), field, opts)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, res.Archive)
	}
	if chunked, err := CompressChunked(context.Background(), field, Options{DataCodec: zfp.MustNew(8)}, 2); err == nil {
		seeds = append(seeds, chunked.Archive)
	}
	if series, err := CompressSeries(context.Background(), []*grid.Field{field, field}, Options{DataCodec: zfp.MustNew(8)}); err == nil {
		seeds = append(seeds, series.Archive)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine.
		if out, err := Decompress(context.Background(), data, DecompressOpts{}); err == nil && out != nil {
			if out.Len() == 0 || out.Len() > 1<<24 {
				t.Fatalf("implausible decode length %d", out.Len())
			}
		}
		_, _ = DecompressSeries(context.Background(), data, DecompressOpts{})
	})
}
