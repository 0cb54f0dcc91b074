package faultinject_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/huffman"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// corpusField is the deterministic source field every corpus archive
// encodes: small enough to keep the exhaustive bit-flip sweep fast, smooth
// enough to be a realistic codec input.
func corpusField() *grid.Field {
	f := grid.New(12, 8)
	for j := 0; j < 12; j++ {
		for i := 0; i < 8; i++ {
			f.Set2(math.Sin(float64(j)/3)+0.5*math.Cos(float64(i)/2), j, i)
		}
	}
	return f
}

// buildCorpus returns every corpus entry by name. The sweep test decodes
// each name with the decoder its prefix selects (see decoderForCorpus).
func buildCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	f := corpusField()
	out := map[string][]byte{}
	codec := func(name string, c compress.Codec) {
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = enc
	}
	codec("sz-abs.bin", sz.MustNew(sz.Abs, 1e-4))
	codec("sz-rel.bin", sz.MustNew(sz.ValueRangeRel, 1e-4))
	codec("sz-pwrel.bin", sz.MustNew(sz.PointwiseRel, 1e-3))
	codec("zfp-p.bin", zfp.MustNew(12))
	codec("zfp-a.bin", zfp.MustNewAccuracy(1e-3))
	codec("zfp-r.bin", zfp.MustNewRate(8))
	codec("fpc.bin", fpc.MustNew(10))

	symbols := make([]int, 300)
	for i := range symbols {
		symbols[i] = (i*i)%23 - 11
	}
	out["huffman.bin"] = huffman.Encode(symbols, 1)

	direct, err := core.Compress(context.Background(), f, core.Options{DataCodec: zfp.MustNew(12)})
	if err != nil {
		t.Fatal(err)
	}
	out["lrm1-direct.bin"] = direct.Archive

	precond, err := core.Compress(context.Background(), f, core.Options{
		Model: reduce.OneBase{}, DataCodec: zfp.MustNew(12), DeltaCodec: zfp.MustNew(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	out["lrm1-precond.bin"] = precond.Archive

	chunked, err := core.CompressChunked(context.Background(), f, core.Options{DataCodec: zfp.MustNew(12)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["lrmc-zfp.bin"] = chunked.Archive

	chunkedPre, err := core.CompressChunked(context.Background(), f, core.Options{
		Model: reduce.OneBase{}, DataCodec: sz.MustNew(sz.Abs, 1e-4),
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["lrmc-precond.bin"] = chunkedPre.Archive

	frames := []*grid.Field{f, f.Clone(), f.Clone()}
	for i := range frames[1].Data {
		frames[1].Data[i] += 0.01
		frames[2].Data[i] += 0.02
	}
	series, err := core.CompressSeries(context.Background(), frames, core.Options{DataCodec: zfp.MustNew(12)})
	if err != nil {
		t.Fatal(err)
	}
	out["lrms.bin"] = series.Archive
	return out
}

// TestGenerateCorpus regenerates the checked-in corpus. The files are
// committed so the sweep is stable across format changes being developed:
// set LRM_GEN_CORPUS=1 after intentionally changing an archive format.
func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("LRM_GEN_CORPUS") == "" {
		t.Skip("set LRM_GEN_CORPUS=1 to regenerate testdata/corpus")
	}
	dir := filepath.Join("testdata", "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range buildCorpus(t) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusCurrent fails when the checked-in corpus drifts from what the
// current encoders produce, pointing at the regeneration knob.
func TestCorpusCurrent(t *testing.T) {
	for name, want := range buildCorpus(t) {
		got, err := os.ReadFile(filepath.Join("testdata", "corpus", name))
		if err != nil {
			t.Fatalf("corpus entry missing (regenerate with LRM_GEN_CORPUS=1): %v", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: checked-in corpus differs from current encoder output (regenerate with LRM_GEN_CORPUS=1)", name)
		}
	}
}
