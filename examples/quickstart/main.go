// Quickstart: generate a Heat3d field, precondition it with each reduced
// model, compress with the paper's ZFP configuration, and verify the round
// trip — the minimal end-to-end tour of the public pipeline.
package main

import (
	"context"
	"fmt"
	"log"

	"lrm/internal/core"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
	"lrm/internal/stats"
)

func main() {
	// 1. Produce some science data: a 3-D heat field after 150 steps.
	cfg := heat3d.Default(32)
	cfg.Steps = 150
	field := heat3d.Solve(cfg)
	fmt.Printf("generated Heat3d %v (%d values, %d bytes raw)\n\n",
		field.Dims, field.Len(), 8*field.Len())

	// 2. The paper's codec configuration: ZFP 16-bit precision for data
	//    and reduced representations, 8-bit for the (smoother) delta.
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compress directly and with every reduced model. The pipeline
	//    takes a context for tracing; a program without one passes
	//    context.Background().
	ctx := context.Background()
	models := []struct {
		name  string
		model reduce.Model
	}{
		{"direct (no preconditioning)", nil},
		{"one-base", reduce.OneBase{}},
		{"multi-base", reduce.MultiBase{Blocks: 4}},
		{"duomodel", reduce.DuoModel{Factor: 4}},
		{"pca", reduce.PCA{}},
		{"svd", reduce.SVD{}},
		{"wavelet", reduce.Wavelet{}},
	}
	fmt.Printf("%-28s %10s %12s %12s\n", "method", "ratio", "max error", "RMSE")
	for _, m := range models {
		res, err := core.Compress(ctx, field, core.Options{
			Model: m.model, DataCodec: data, DeltaCodec: delta,
		})
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		// 4. Round trip and measure the information loss.
		back, err := core.Decompress(ctx, res.Archive, core.DecompressOpts{})
		if err != nil {
			log.Fatalf("%s: decompress: %v", m.name, err)
		}
		fmt.Printf("%-28s %9.2fx %12.2e %12.2e\n",
			m.name, res.Ratio(),
			stats.MaxAbsError(field.Data, back.Data),
			stats.RMSE(field.Data, back.Data))
	}

	fmt.Println("\nPreconditioning pays on this Z-symmetric data: the mid-plane")
	fmt.Println("(one-base) captures the latent structure, so only a smooth delta")
	fmt.Println("reaches the compressor.")
}
