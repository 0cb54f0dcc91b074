package faultinject_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/faultinject"
	"lrm/internal/obs"
	"lrm/internal/parallel"
)

// TestPartialDecodeMetricsUnderSweep pins the degraded-mode observability
// contract on the LRMC corpus: a pristine decode attributes one span with
// byte volumes to every chunk and reports zero failures, and for every
// sweep mutant that reaches the per-chunk decode loop the core.chunk_errors
// counter delta equals the ChunkErrors the Partial reports — the metrics a
// recovery dashboard would watch cannot drift from the API's error report.
func TestPartialDecodeMetricsUnderSweep(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing (regenerate with LRM_GEN_CORPUS=1): %v", err)
	}
	prevEnabled := obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(prevEnabled)
		obs.Reset()
	}()
	prevCap := compress.SetDecodeAllocCap(sweepAllocCap)
	defer compress.SetDecodeAllocCap(prevCap)

	serial := core.DecompressOpts{Parallel: parallel.Config{Workers: 1}}
	chunkErrors := obs.GetCounter("core.chunk_errors")
	chunksDecoded := obs.GetCounter("core.chunks_decoded")

	tested := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "lrmc") {
			continue
		}
		tested++
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}

			// Pristine decode: every chunk gets a span with byte attribution,
			// the decoded counter matches the chunk count, no errors counted.
			obs.Reset()
			var p core.Partial
			if _, err := core.Decompress(context.Background(), data, core.DecompressOpts{Parallel: serial.Parallel, Partial: &p}); err != nil {
				t.Fatalf("pristine archive fails to decode: %v", err)
			}
			if !p.Complete() {
				t.Fatalf("pristine archive decoded incomplete: %v", p.Errors)
			}
			snap := obs.Snapshot()
			if got := snap.Counters["stage.core.chunk_decode.calls"]; got != int64(p.Chunks) {
				t.Errorf("chunk_decode spans recorded %d calls, want %d", got, p.Chunks)
			}
			in := snap.Counters["stage.core.chunk_decode.bytes_in"]
			out := snap.Counters["stage.core.chunk_decode.bytes_out"]
			if in <= 0 || out <= 0 {
				t.Errorf("chunk_decode spans lack byte attribution: bytes_in %d, bytes_out %d", in, out)
			}
			if got := chunksDecoded.Value(); got != int64(p.Chunks) {
				t.Errorf("chunks_decoded = %d, want %d", got, p.Chunks)
			}
			if got := chunkErrors.Value(); got != 0 {
				t.Errorf("chunk_errors = %d on a pristine decode", got)
			}

			// Sweep: the failed-chunk counter must march in lockstep with the
			// Partial's error report on every mutant that frames successfully.
			reached := 0
			decode := func(b []byte) error {
				before := chunkErrors.Value()
				var p core.Partial
				_, partialErr := core.Decompress(context.Background(), b, core.DecompressOpts{Parallel: serial.Parallel, Partial: &p})
				if partialErr != nil {
					// Header/framing rejection: no chunk was attempted, so
					// the counter must not have moved.
					if d := chunkErrors.Value() - before; d != 0 {
						t.Errorf("chunk_errors moved by %d on a framing rejection", d)
					}
					return partialErr
				}
				reached++
				if d := chunkErrors.Value() - before; d != int64(len(p.Errors)) {
					t.Errorf("chunk_errors delta %d, but Partial reports %d failed chunks", d, len(p.Errors))
				}
				if len(p.Errors) > 0 {
					return p.Errors[0]
				}
				if p.Trailing > 0 {
					// Trailing garbage is not a chunk failure; report it the
					// way the strict decoder classifies it.
					_, strictErr := core.Decompress(context.Background(), b, serial)
					return strictErr
				}
				return nil
			}
			rep := faultinject.Sweep(data, decode, faultinject.Options{MaxVarintSites: 64})
			for _, f := range rep.Failures {
				t.Errorf("contract violation: %s", f)
			}
			if reached == 0 {
				t.Error("no mutant exercised the per-chunk decode path")
			}
			t.Logf("%d mutants, %d reached chunk decode, final chunk_errors %d",
				rep.Mutations, reached, chunkErrors.Value())
		})
	}
	if tested == 0 {
		t.Fatal("corpus has no lrmc entries; the partial path was not exercised")
	}
}
