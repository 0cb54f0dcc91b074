package faultinject_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/faultinject"
	"lrm/internal/huffman"
	"lrm/internal/parallel"
)

// sweepAllocCap is the decode allocation cap active during the sweep. It is
// far below the production default so the sweep proves length-field bombs
// are rejected by validation, not absorbed by a huge budget — yet roomy
// enough for every legitimate corpus decode (the largest is fpc's 16 KiB
// predictor tables at level 10).
const sweepAllocCap = 1 << 20

// sweepAllocBudget bounds the total allocation any single mutant decode may
// perform: several capped allocations plus flate scratch, nowhere near the
// gigabytes an unchecked dims or length bomb would claim.
const sweepAllocBudget = 32 << 20

// decoderForCorpus maps a corpus file name to the serial decoder that owns
// that archive format. Serial (workers = 1) keeps the harness's allocation
// accounting honest.
func decoderForCorpus(t *testing.T, name string) faultinject.DecodeFunc {
	t.Helper()
	serial := core.DecompressOpts{Parallel: parallel.Config{Workers: 1}}
	switch {
	case strings.HasPrefix(name, "sz-"):
		c := sz.MustNew(sz.Abs, 1e-4)
		return func(b []byte) error { _, err := c.Decompress(context.Background(), b, serial.Parallel); return err }
	case strings.HasPrefix(name, "zfp-"):
		c := zfp.MustNew(16)
		return func(b []byte) error { _, err := c.Decompress(context.Background(), b, serial.Parallel); return err }
	case strings.HasPrefix(name, "fpc"):
		c := fpc.MustNew(16)
		return func(b []byte) error { _, err := c.Decompress(context.Background(), b, parallel.Config{}); return err }
	case strings.HasPrefix(name, "huffman"):
		return func(b []byte) error { _, err := huffman.Decode(b); return err }
	case strings.HasPrefix(name, "lrmc"):
		// Chunked containers are decoded both fail-fast and degraded: the
		// partial path must uphold the same no-panic/no-bomb contract.
		return func(b []byte) error {
			_, strictErr := core.DecompressWithOptsCtx(context.Background(), b, serial)
			p, partialErr := core.DecompressChunkedPartialWithOptsCtx(context.Background(), b, serial)
			if partialErr != nil {
				return partialErr
			}
			if !p.Complete() {
				// Surface the first chunk error so the harness can check
				// its classification; framing errors arrive via strictErr.
				if len(p.Errors) > 0 {
					return p.Errors[0]
				}
				return strictErr
			}
			return strictErr
		}
	case strings.HasPrefix(name, "lrms"):
		return func(b []byte) error { _, err := core.DecompressSeriesCtx(context.Background(), b); return err }
	case strings.HasPrefix(name, "lrm1"):
		return func(b []byte) error {
			_, err := core.DecompressWithOptsCtx(context.Background(), b, serial)
			return err
		}
	default:
		t.Fatalf("no decoder mapped for corpus entry %q", name)
		return nil
	}
}

// TestSweepCorpus is the tier-1.5 hardening gate: every mutation of every
// corpus archive must decode cleanly or fail with a classified error —
// never panic, never allocate past the cap.
func TestSweepCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing (regenerate with LRM_GEN_CORPUS=1): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus directory is empty (regenerate with LRM_GEN_CORPUS=1)")
	}
	prev := compress.SetDecodeAllocCap(sweepAllocCap)
	defer compress.SetDecodeAllocCap(prev)
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			decode := decoderForCorpus(t, name)
			if err := decode(data); err != nil {
				t.Fatalf("pristine archive fails to decode under the sweep cap: %v", err)
			}
			rep := faultinject.Sweep(data, decode, faultinject.Options{MaxVarintSites: 64})
			for _, f := range rep.Failures {
				t.Errorf("contract violation: %s", f)
			}
			if rep.Errored == 0 {
				t.Error("sweep rejected no mutants; harness is not exercising the decoder")
			}
			if rep.MaxAllocBytes > sweepAllocBudget {
				t.Errorf("a single decode allocated %d bytes (budget %d)", rep.MaxAllocBytes, sweepAllocBudget)
			}
			t.Logf("%d mutants: %d rejected, %d clean, max alloc %d bytes",
				rep.Mutations, rep.Errored, rep.Clean, rep.MaxAllocBytes)
		})
	}
}
