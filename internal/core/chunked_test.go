package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/reduce"
	"lrm/internal/stats"
)

func TestChunkedRoundTrip(t *testing.T) {
	f := heatField(t)
	for _, chunks := range []int{1, 2, 3, 4, 7} {
		for _, m := range []reduce.Model{nil, reduce.OneBase{}, reduce.PCA{}} {
			res, err := CompressChunkedCtx(context.Background(), f, Options{
				Model: m, DataCodec: zfp.MustNew(24), DeltaCodec: zfp.MustNew(16),
			}, chunks)
			if err != nil {
				t.Fatalf("chunks=%d model=%s: %v", chunks, modelName(m), err)
			}
			dec, err := DecompressCtx(context.Background(), res.Archive)
			if err != nil {
				t.Fatalf("chunks=%d model=%s: %v", chunks, modelName(m), err)
			}
			if len(dec.Dims) != len(f.Dims) || dec.Dims[0] != f.Dims[0] {
				t.Fatalf("chunks=%d: dims %v != %v", chunks, dec.Dims, f.Dims)
			}
			if e := stats.MaxAbsError(f.Data, dec.Data); e > 2e-2 {
				t.Fatalf("chunks=%d model=%s: error %v", chunks, modelName(m), e)
			}
		}
	}
}

func TestChunkedLosslessExact(t *testing.T) {
	f := heatField(t)
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: fpc.MustNew(10)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(context.Background(), res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Float64bits(dec.Data[i]) != math.Float64bits(f.Data[i]) {
			t.Fatalf("lossless chunked round trip broke at %d", i)
		}
	}
}

func TestChunkedAccounting(t *testing.T) {
	f := heatField(t)
	res, err := CompressChunkedCtx(context.Background(), f, Options{
		Model: reduce.OneBase{}, DataCodec: zfp.MustNew(16), DeltaCodec: zfp.MustNew(8),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalBytes != 8*f.Len() {
		t.Fatalf("OriginalBytes = %d", res.OriginalBytes)
	}
	// Four chunks, each with a rep and delta.
	if res.RepBytes() == 0 || res.DeltaBytes == 0 {
		t.Fatalf("missing accounting: %+v", res)
	}
	if res.Ratio() <= 1 {
		t.Fatalf("ratio = %v", res.Ratio())
	}
}

func TestChunkedValidation(t *testing.T) {
	f := grid.New(4, 4)
	opts := Options{DataCodec: zfp.MustNew(8)}
	if _, err := CompressChunkedCtx(context.Background(), f, opts, 0); err == nil {
		t.Fatal("expected chunks=0 rejection")
	}
	if _, err := CompressChunkedCtx(context.Background(), f, opts, 5); err == nil {
		t.Fatal("expected chunks>extent rejection")
	}
	if _, err := CompressChunkedCtx(context.Background(), f, Options{}, 2); err == nil {
		t.Fatal("expected missing-codec rejection")
	}
}

func TestChunkedCRCDetectsCorruption(t *testing.T) {
	f := heatField(t)
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(16)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the chunk payloads (past the header).
	for _, pos := range []int{len(res.Archive) / 2, len(res.Archive) - 1} {
		bad := append([]byte(nil), res.Archive...)
		bad[pos] ^= 0x40
		_, err := DecompressCtx(context.Background(), bad)
		if err == nil {
			t.Fatalf("corruption at %d not detected", pos)
		}
		if !strings.Contains(err.Error(), "CRC") && !strings.Contains(err.Error(), "corrupt") &&
			!strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "trailing") {
			t.Logf("corruption at %d detected via: %v", pos, err)
		}
	}
}

func TestChunkedTruncation(t *testing.T) {
	f := heatField(t)
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(12)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(res.Archive); cut += 11 {
		if _, err := DecompressCtx(context.Background(), res.Archive[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecompressCtx(context.Background(), append(res.Archive, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestChunkedOneBaseActsLikeMultiBase(t *testing.T) {
	// One-base applied per chunk is the multi-base structure: per-sub-domain
	// bases. Its total rep must exceed the single-chunk one-base rep.
	f := heatField(t)
	opts := Options{Model: reduce.OneBase{}, DataCodec: zfp.MustNew(16), DeltaCodec: zfp.MustNew(8)}
	one, err := CompressChunkedCtx(context.Background(), f, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := CompressChunkedCtx(context.Background(), f, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if four.RepBytes() <= one.RepBytes() {
		t.Fatalf("4-chunk rep (%d) should exceed 1-chunk rep (%d)", four.RepBytes(), one.RepBytes())
	}
}

func TestChunkedRank1(t *testing.T) {
	f := grid.New(1000)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 20)
	}
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(20)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(context.Background(), res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.MaxAbsError(f.Data, dec.Data); e > 1e-3 {
		t.Fatalf("rank-1 chunked error %v", e)
	}
}

// TestCodecFamily pins the pprof codec-label reduction: parameters are
// stripped so label cardinality stays at the codec-family count.
func TestCodecFamily(t *testing.T) {
	cases := map[string]string{
		"sz(abs=1e-3)":      "sz",
		"zfp(precision=16)": "zfp",
		"fpc":               "fpc",
		"":                  "",
	}
	for in, want := range cases {
		if got := compress.CodecFamily(in); got != want {
			t.Errorf("CodecFamily(%q) = %q, want %q", in, got, want)
		}
	}
}
