// Time-series compression: successive simulation outputs are themselves
// highly similar, so the previous frame acts as a temporal reduced model
// (the delta-snapshot idea the paper's introduction cites alongside its
// spatial reduced models). This example compresses a Heat3d snapshot series
// as one archive and compares against compressing every frame
// independently.
package main

import (
	"context"
	"fmt"
	"log"

	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
	"lrm/internal/stats"
)

func main() {
	cfg := heat3d.Default(32)
	cfg.Steps = 300
	const frames = 12
	snaps := heat3d.Snapshots(cfg, frames)
	raw := 0
	for _, s := range snaps {
		raw += 8 * s.Len()
	}
	fmt.Printf("series: %d frames of %v (%d bytes raw)\n\n", frames, snaps[0].Dims, raw)

	// An absolute-error codec: small temporal deltas need few bit planes.
	codec := zfp.MustNewAccuracy(1e-5)
	opts := core.Options{Model: reduce.OneBase{}, DataCodec: codec, DeltaCodec: codec}
	ctx := context.Background()

	series, err := core.CompressSeries(ctx, snaps, opts)
	if err != nil {
		log.Fatal(err)
	}

	independent := 0
	for _, s := range snaps {
		res, err := core.Compress(ctx, s, opts)
		if err != nil {
			log.Fatal(err)
		}
		independent += len(res.Archive)
	}

	fmt.Printf("independent frames: %9d bytes (ratio %.2fx)\n",
		independent, float64(raw)/float64(independent))
	fmt.Printf("temporal series:    %9d bytes (ratio %.2fx)\n",
		len(series.Archive), series.Ratio())
	fmt.Printf("series advantage:   %.2fx\n\n", float64(independent)/float64(len(series.Archive)))

	fmt.Println("per-frame stored bytes (frame 0 is the spatial-pipeline keyframe):")
	for i, b := range series.FrameBytes {
		fmt.Printf("  frame %2d: %7d bytes\n", i, b)
	}

	// Verify the round trip stays within the codec tolerance on every frame.
	decoded, err := core.DecompressSeries(ctx, series.Archive, core.DecompressOpts{})
	if err != nil {
		log.Fatal(err)
	}
	worst := 0.0
	for i := range snaps {
		if e := stats.MaxAbsError(snaps[i].Data, decoded[i].Data); e > worst {
			worst = e
		}
	}
	fmt.Printf("\nworst per-point error across all frames: %.2e (codec tolerance 1e-05;\n", worst)
	fmt.Println("the rolling-reconstruction design keeps error from accumulating)")
}
