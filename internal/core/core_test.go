package core

import (
	"context"
	"math"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
	"lrm/internal/stats"
)

func heatField(t *testing.T) *grid.Field {
	t.Helper()
	cfg := heat3d.Default(20)
	cfg.Steps = 60
	return heat3d.Solve(cfg)
}

func allModels() []reduce.Model {
	return []reduce.Model{
		nil, // direct
		reduce.OneBase{},
		reduce.MultiBase{Blocks: 4},
		reduce.DuoModel{Factor: 4},
		reduce.PCA{},
		reduce.SVD{},
		reduce.Wavelet{},
	}
}

func modelName(m reduce.Model) string {
	if m == nil {
		return "direct"
	}
	return m.Name()
}

func TestPipelineRoundTripAllModelsAllCodecs(t *testing.T) {
	f := heatField(t)
	codecs := []struct {
		data, delta compress.Codec
		tol         float64
	}{
		{zfp.MustNew(24), zfp.MustNew(16), 2e-2},
		{sz.MustNew(sz.Abs, 1e-5), sz.MustNew(sz.Abs, 1e-4), 5e-3},
		{fpc.MustNew(12), fpc.MustNew(12), 1e-9},
		{compress.NewFlate(6), compress.NewFlate(6), 1e-12},
	}
	for _, cc := range codecs {
		for _, m := range allModels() {
			res, err := CompressCtx(context.Background(), f, Options{Model: m, DataCodec: cc.data, DeltaCodec: cc.delta})
			if err != nil {
				t.Fatalf("%s/%s: %v", cc.data.Name(), modelName(m), err)
			}
			dec, err := DecompressCtx(context.Background(), res.Archive)
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", cc.data.Name(), modelName(m), err)
			}
			if dec.Len() != f.Len() {
				t.Fatalf("%s/%s: length mismatch", cc.data.Name(), modelName(m))
			}
			maxErr := stats.MaxAbsError(f.Data, dec.Data)
			if maxErr > cc.tol {
				t.Fatalf("%s/%s: max error %v exceeds %v", cc.data.Name(), modelName(m), maxErr, cc.tol)
			}
		}
	}
}

func TestLosslessCodecsExactThroughPipeline(t *testing.T) {
	// With a lossless codec for both rep and delta, the pipeline must be
	// bit-exact end to end regardless of model.
	f := heatField(t)
	codec := fpc.MustNew(10)
	for _, m := range allModels() {
		res, err := CompressCtx(context.Background(), f, Options{Model: m, DataCodec: codec})
		if err != nil {
			t.Fatalf("%s: %v", modelName(m), err)
		}
		dec, err := DecompressCtx(context.Background(), res.Archive)
		if err != nil {
			t.Fatalf("%s: %v", modelName(m), err)
		}
		for i := range f.Data {
			if math.Abs(dec.Data[i]-f.Data[i]) > 1e-9*(1+math.Abs(f.Data[i])) {
				t.Fatalf("%s: not near-exact at %d: %v vs %v", modelName(m), i, dec.Data[i], f.Data[i])
			}
		}
	}
}

func TestPreconditioningImprovesRatioOnHeat3d(t *testing.T) {
	// The headline claim: one-base preconditioning beats direct compression
	// on Heat3d-like data.
	f := heatField(t)
	data, delta, err := PaperCodecs("zfp")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := CompressCtx(context.Background(), f, Options{DataCodec: data})
	if err != nil {
		t.Fatal(err)
	}
	oneBase, err := CompressCtx(context.Background(), f, Options{Model: reduce.OneBase{}, DataCodec: data, DeltaCodec: delta})
	if err != nil {
		t.Fatal(err)
	}
	if oneBase.Ratio() <= direct.Ratio() {
		t.Fatalf("one-base ratio %.2f did not beat direct %.2f", oneBase.Ratio(), direct.Ratio())
	}
}

func TestResultAccounting(t *testing.T) {
	f := heatField(t)
	res, err := CompressCtx(context.Background(), f, Options{Model: reduce.PCA{}, DataCodec: zfp.MustNew(16), DeltaCodec: zfp.MustNew(8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalBytes != 8*f.Len() {
		t.Fatalf("OriginalBytes = %d", res.OriginalBytes)
	}
	if res.RepBytes() <= 0 || res.DeltaBytes <= 0 {
		t.Fatalf("missing accounting: rep=%d delta=%d", res.RepBytes(), res.DeltaBytes)
	}
	if res.RepBytes()+res.DeltaBytes > len(res.Archive) {
		t.Fatalf("parts (%d) exceed archive (%d)", res.RepBytes()+res.DeltaBytes, len(res.Archive))
	}
	if res.Ratio() <= 0 {
		t.Fatalf("ratio = %v", res.Ratio())
	}

	direct, err := CompressCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(16)})
	if err != nil {
		t.Fatal(err)
	}
	if direct.RepBytes() != 0 || direct.DeltaBytes != 0 {
		t.Fatal("direct compression should have no rep/delta accounting")
	}
}

func TestMissingCodec(t *testing.T) {
	f := grid.New(4)
	if _, err := CompressCtx(context.Background(), f, Options{}); err == nil {
		t.Fatal("expected DataCodec-required error")
	}
}

func TestDecompressGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("LRM1"),
		[]byte("LRM1\x07"),
		[]byte("LRM1\x00\x03zfp"),
		[]byte("LRM1\x01\x03zfp\x03pca\x09"),
	}
	for i, b := range cases {
		if _, err := DecompressCtx(context.Background(), b); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Valid archive, truncated at every byte boundary: error, never panic.
	f := heatField(t)
	res, err := CompressCtx(context.Background(), f, Options{Model: reduce.OneBase{}, DataCodec: zfp.MustNew(12)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(res.Archive); cut += 7 {
		if _, err := DecompressCtx(context.Background(), res.Archive[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnknownCodecFamilyInArchive(t *testing.T) {
	f := grid.New(8)
	res, err := CompressCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(8)})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), res.Archive...)
	// The codec name "zfp" starts after magic+mode+len: flip it.
	bad[6], bad[7], bad[8] = 'q', 'q', 'q'
	if _, err := DecompressCtx(context.Background(), bad); err == nil {
		t.Fatal("expected unknown-codec error")
	}
}

func TestPaperCodecs(t *testing.T) {
	for _, family := range []string{"zfp", "sz", "fpc", "flate"} {
		data, delta, err := PaperCodecs(family)
		if err != nil || data == nil || delta == nil {
			t.Fatalf("%s: %v", family, err)
		}
	}
	if _, _, err := PaperCodecs("nope"); err == nil {
		t.Fatal("expected unknown-family error")
	}
}

func TestSelectModelPicksAWinner(t *testing.T) {
	f := heatField(t)
	data, delta, _ := PaperCodecs("zfp")
	best, results, err := SelectModel(context.Background(), f, DefaultCandidates(), Options{DataCodec: data, DeltaCodec: delta})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(DefaultCandidates()) {
		t.Fatalf("results = %d", len(results))
	}
	// On Z-symmetric heat data a preconditioner must beat direct.
	if best.Label == "direct" {
		t.Fatalf("expected a preconditioner to win on Heat3d, got %q", best.Label)
	}
	// The winner's ratio must be the max of all reported ratios.
	var bestSeen float64
	for _, r := range results {
		if r.Err == nil && r.Ratio > bestSeen {
			bestSeen = r.Ratio
		}
	}
	for _, r := range results {
		if r.Label == best.Label && r.Ratio != bestSeen {
			t.Fatalf("winner %q ratio %v != best seen %v", best.Label, r.Ratio, bestSeen)
		}
	}
}

func TestSelectModelRequiresCodec(t *testing.T) {
	if _, _, err := SelectModel(context.Background(), grid.New(4), DefaultCandidates(), Options{}); err == nil {
		t.Fatal("expected codec-required error")
	}
}

func TestSzPipelineRespectsLooseDeltaBound(t *testing.T) {
	// End-to-end error with sz abs bounds: rep bound 1e-5, delta bound
	// 1e-3. Total error is bounded by rep-induced reconstruction shift
	// (captured in the delta) + delta quantisation error <= ~1e-3.
	f := heatField(t)
	res, err := CompressCtx(context.Background(), f, Options{
		Model:      reduce.OneBase{},
		DataCodec:  sz.MustNew(sz.Abs, 1e-5),
		DeltaCodec: sz.MustNew(sz.Abs, 1e-3),
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(context.Background(), res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr := stats.MaxAbsError(f.Data, dec.Data); maxErr > 1.1e-3 {
		t.Fatalf("end-to-end error %v exceeds delta bound", maxErr)
	}
}

func TestEmptyRepValuesPath(t *testing.T) {
	// A zero field wavelet-transforms to all zeros -> empty sparse rep.
	f := grid.New(16, 16)
	res, err := CompressCtx(context.Background(), f, Options{Model: reduce.Wavelet{}, DataCodec: zfp.MustNew(16)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressCtx(context.Background(), res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec.Data {
		if v != 0 {
			t.Fatalf("zero field corrupted at %d: %v", i, v)
		}
	}
}
