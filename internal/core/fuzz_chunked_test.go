package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// chunkedFuzzSeeds builds the seed archives for FuzzDecompressChunked: valid
// chunked containers across codecs and models, plus hostile headers that
// previously reached allocation sites (the dims-bomb reproducers).
func chunkedFuzzSeeds(tb testing.TB) [][]byte {
	field := grid.New(16, 6)
	for i := range field.Data {
		field.Data[i] = float64(i%11) * 0.25
	}
	var seeds [][]byte
	for _, tc := range []struct {
		opts   Options
		chunks int
	}{
		{Options{DataCodec: zfp.MustNew(12)}, 3},
		{Options{DataCodec: sz.MustNew(sz.Abs, 1e-3)}, 2},
		{Options{DataCodec: fpc.MustNew(8)}, 4},
		{Options{Model: reduce.OneBase{}, DataCodec: zfp.MustNew(12)}, 2},
	} {
		res, err := CompressChunked(context.Background(), field, tc.opts, tc.chunks)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, res.Archive)
	}
	// Hostile headers: dims whose product wraps uint64 or vastly exceeds
	// MaxElements while each extent stays individually plausible-looking.
	for _, dims := range [][]uint64{
		{1 << 32, 1, 1},
		{1 << 32, 1 << 32, 1 << 32},
	} {
		seeds = append(seeds, hostileChunkedArchive(dims))
	}
	return seeds
}

// FuzzDecompressChunked drives the LRMC container parser — both the
// fail-fast and the degraded-mode path — with arbitrary bytes. The decode
// contract: never panic, and every failure wraps compress.ErrCorrupt or
// compress.ErrTruncated.
func FuzzDecompressChunked(f *testing.F) {
	for _, s := range chunkedFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Decompress(context.Background(), data, DecompressOpts{}); err != nil {
			if !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrTruncated) {
				t.Fatalf("unclassified strict-decode error: %v", err)
			}
		}
		pf, p, err := decodePartial(context.Background(), data, parallel.Config{})
		if err != nil {
			if !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrTruncated) {
				t.Fatalf("unclassified partial-decode error: %v", err)
			}
			return
		}
		if pf == nil {
			t.Fatal("partial decode returned nil field without error")
		}
		for _, ce := range p.Errors {
			if !errors.Is(ce.Err, compress.ErrCorrupt) && !errors.Is(ce.Err, compress.ErrTruncated) {
				t.Fatalf("unclassified chunk error: %v", ce)
			}
			if ce.Lo < 0 || ce.Hi > pf.Dims[0] || ce.Lo >= ce.Hi {
				t.Fatalf("chunk %d reports bogus row range [%d,%d)", ce.Chunk, ce.Lo, ce.Hi)
			}
		}
	})
}

// TestGenerateChunkedFuzzCorpus regenerates the checked-in seed corpus for
// FuzzDecompressChunked; set LRM_GEN_CORPUS=1 after an intentional format
// change.
func TestGenerateChunkedFuzzCorpus(t *testing.T) {
	if os.Getenv("LRM_GEN_CORPUS") == "" {
		t.Skip("set LRM_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecompressChunked")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range chunkedFuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
