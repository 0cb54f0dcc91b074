// Compressor bake-off: run every codec (ZFP fixed-precision, ZFP
// fixed-accuracy, SZ in all three bound modes, SZ with curve fitting, FPC,
// flate) directly over the nine Table I datasets and print ratio plus
// error. A compact tour of the compressor substrate on its own, without
// preconditioning. Every codec satisfies the one compress.Codec interface:
// Compress and Decompress take a context (for tracing) and a
// parallel.Config (the worker budget), and the bytes never depend on either.
package main

import (
	"context"
	"fmt"
	"log"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/dataset"
	"lrm/internal/parallel"
	"lrm/internal/stats"
)

func main() {
	codecs := []compress.Codec{
		zfp.MustNew(16),
		zfp.MustNewAccuracy(1e-4),
		sz.MustNew(sz.Abs, 1e-4),
		sz.MustNew(sz.ValueRangeRel, 1e-5),
		sz.MustNew(sz.PointwiseRel, 1e-4),
		sz.MustNewCurveFit(sz.Abs, 1e-4),
		fpc.MustNew(16),
		compress.NewFlate(6),
	}

	ctx := context.Background()
	var cfg parallel.Config // default worker pool
	fmt.Printf("%-14s %-18s %8s %12s %9s\n", "dataset", "codec", "ratio", "max err", "lossless")
	for _, name := range dataset.Names() {
		pair, err := dataset.Generate(name, dataset.Small)
		if err != nil {
			log.Fatal(err)
		}
		f := pair.Full
		for _, c := range codecs {
			enc, err := c.Compress(ctx, f, cfg)
			if err != nil {
				log.Fatalf("%s/%s: %v", name, c.Name(), err)
			}
			dec, err := c.Decompress(ctx, enc, cfg)
			if err != nil {
				log.Fatalf("%s/%s: %v", name, c.Name(), err)
			}
			fmt.Printf("%-14s %-18s %7.2fx %12.2e %9v\n",
				name, c.Name(), compress.Ratio(f, enc),
				stats.MaxAbsError(f.Data, dec.Data), c.Lossless())
		}
		fmt.Println()
	}
}
