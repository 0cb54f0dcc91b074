// Model selection (the paper's second future-work direction): no single
// reduced model is best for every dataset, so try each candidate per
// dataset and pick the winner before reduction. This example sweeps the
// nine Table I datasets and prints the selection matrix.
package main

import (
	"context"
	"fmt"
	"log"

	"lrm/internal/core"
	"lrm/internal/dataset"
)

func main() {
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		log.Fatal(err)
	}
	opts := core.Options{DataCodec: data, DeltaCodec: delta}
	ctx := context.Background()

	fmt.Printf("%-14s", "dataset")
	for _, c := range core.DefaultCandidates() {
		fmt.Printf(" %10s", c.Label)
	}
	fmt.Printf("  -> %s\n", "winner")

	for _, name := range dataset.Names() {
		pair, err := dataset.Generate(name, dataset.Small)
		if err != nil {
			log.Fatal(err)
		}
		best, results, err := core.SelectModel(ctx, pair.Full, core.DefaultCandidates(), opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s", name)
		for _, r := range results {
			if r.Err != nil {
				fmt.Printf(" %10s", "fail")
			} else {
				fmt.Printf(" %9.2fx", r.Ratio)
			}
		}
		fmt.Printf("  -> %s\n", best.Label)
	}

	fmt.Println("\nThe winner varies by dataset — exactly the observation that")
	fmt.Println("motivates selecting the model before reduction (Section VII).")
}
