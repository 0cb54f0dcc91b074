package zfp

import (
	"context"
	"sync"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/sim/heat3d"
)

// benchHeat is a 64³ Heat3d snapshot after 700 solver steps (the
// benchmark's 64³ Heat3d input), built once per test binary.
var benchHeat = sync.OnceValue(func() *grid.Field {
	cfg := heat3d.Default(64)
	cfg.Steps = 700
	return heat3d.Solve(cfg)
})

// benchCodec is zfp accuracy mode at ε = 1e-4·range of the field, the
// delta codec's setting in the preconditioned pipeline.
func benchCodec(f *grid.Field) *Codec {
	lo, hi := f.Data[0], f.Data[0]
	for _, v := range f.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	return MustNewAccuracy(1e-4 * (hi - lo))
}

// benchConfigs are the two budgets the kernels are measured at: one worker,
// and the default pool (GOMAXPROCS workers, default size cutover).
var benchConfigs = []struct {
	name string
	cfg  parallel.Config
}{
	{"workers=1", parallel.Config{Workers: 1}},
	{"default", parallel.Config{}},
}

// BenchmarkCompress encodes the 64³ Heat3d field.
//
//	go test -run '^$' -bench 'Compress|Decompress' ./internal/compress/zfp/
func BenchmarkCompress(b *testing.B) {
	f := benchHeat()
	c := benchCodec(f)
	for _, bc := range benchConfigs {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(8 * f.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Compress(context.Background(), f, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecompress decodes the 64³ Heat3d field's stream.
func BenchmarkDecompress(b *testing.B) {
	f := benchHeat()
	c := benchCodec(f)
	enc, err := c.Compress(context.Background(), f, parallel.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range benchConfigs {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(8 * f.Len()))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.Decompress(context.Background(), enc, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
