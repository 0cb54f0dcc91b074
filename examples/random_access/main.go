// Random access into compressed data: ZFP's fixed-rate mode stores every
// 4^d block at an identical bit cost, so any sample can be decoded by
// touching exactly one block — no full decompression. This example
// compresses a 3-D field at several rates and compares probing a handful
// of points via DecodeAt against decompressing everything. The full decode
// goes through the common compress.Codec interface, whose calls take a
// context and a parallel.Config; DecodeAt is zfp's own serial entry point.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"lrm/internal/compress/zfp"
	"lrm/internal/parallel"
	"lrm/internal/sim/heat3d"
	"lrm/internal/stats"
)

func main() {
	cfg := heat3d.Default(48)
	cfg.Steps = 200
	field := heat3d.Solve(cfg)
	raw := 8 * field.Len()
	fmt.Printf("field: %v (%d bytes raw)\n\n", field.Dims, raw)

	ctx := context.Background()
	var pcfg parallel.Config // default worker pool
	fmt.Printf("%6s %12s %10s %14s %16s\n", "rate", "stream", "ratio", "RMSE", "probe 64 pts")
	for _, rate := range []int{4, 8, 16, 32} {
		codec := zfp.MustNewRate(rate)
		enc, err := codec.Compress(ctx, field, pcfg)
		if err != nil {
			log.Fatal(err)
		}
		full, err := codec.Decompress(ctx, enc, pcfg)
		if err != nil {
			log.Fatal(err)
		}

		// Probe 64 random samples without decompressing the field.
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		for p := 0; p < 64; p++ {
			k, j, i := rng.Intn(48), rng.Intn(48), rng.Intn(48)
			got, err := codec.DecodeAt(enc, k, j, i)
			if err != nil {
				log.Fatal(err)
			}
			//lrmlint:ignore floatcmp random access must agree with the full decode bit-exactly
			if got != full.At3(k, j, i) {
				log.Fatalf("DecodeAt disagrees with full decode at (%d,%d,%d)", k, j, i)
			}
		}
		probe := time.Since(start)

		fmt.Printf("%6d %11dB %9.2fx %14.2e %16s\n",
			rate, len(enc), float64(raw)/float64(len(enc)),
			stats.RMSE(field.Data, full.Data), probe.Round(time.Microsecond))
	}

	fmt.Println("\nThe stream size is exactly dims x rate / 8 regardless of content;")
	fmt.Println("each probe decodes one 4x4x4 block — compressed-array semantics.")
}
