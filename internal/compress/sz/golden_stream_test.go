package sz

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// The hashes below were captured from the pre-rewrite scalar Lorenzo
// kernels (per-point predictor dispatch with div/mod index recovery),
// before the batched row kernels landed. The rewritten kernels MUST
// reproduce these streams byte for byte at every worker count.

func goldenSynth(t *testing.T, dims ...int) *grid.Field {
	t.Helper()
	f := grid.New(dims...)
	for i := range f.Data {
		x := float64(i)
		f.Data[i] = math.Sin(x*0.017)*3.5 + math.Cos(x*0.0013)*11 + 0.25*math.Sin(x*0.41)
	}
	return f
}

func goldenHash(b []byte) string {
	s := sha256.Sum256(b)
	return fmt.Sprintf("%x", s[:8])
}

var goldenFields = map[string][]int{
	"1d-37":       {37},
	"1d-4096":     {4096},
	"2d-33x47":    {33, 47},
	"2d-128x96":   {128, 96},
	"3d-16":       {16, 16, 16},
	"3d-31x17x9":  {31, 17, 9},
	"3d-40x44x48": {40, 44, 48},
}

var szGoldenStreams = map[[2]string]string{
	{"sz-abs", "1d-37"}:       "fa9604838100a3b2",
	{"sz-abs", "1d-4096"}:     "cc2a91644ad5d582",
	{"sz-abs", "2d-33x47"}:    "f39870bf5e64464c",
	{"sz-abs", "2d-128x96"}:   "4af7495f34666421",
	{"sz-abs", "3d-16"}:       "008d84334f1f9fae",
	{"sz-abs", "3d-31x17x9"}:  "8e1238d1690a9473",
	{"sz-abs", "3d-40x44x48"}: "7b29e0a0b7385819",

	{"sz-rel", "1d-37"}:       "3e89723a430c8e5b",
	{"sz-rel", "1d-4096"}:     "5435e33cca428f3e",
	{"sz-rel", "2d-33x47"}:    "ba2be97932777f7f",
	{"sz-rel", "2d-128x96"}:   "b0c353af7a21bf7b",
	{"sz-rel", "3d-16"}:       "1be345bf35892e1e",
	{"sz-rel", "3d-31x17x9"}:  "1bb531e9c6be2052",
	{"sz-rel", "3d-40x44x48"}: "df0c75823ac2d3d2",

	{"sz-pwrel", "1d-37"}:       "2a54b9e54e54dacf",
	{"sz-pwrel", "1d-4096"}:     "2ab9efae36d9bcdf",
	{"sz-pwrel", "2d-33x47"}:    "beac39ed447e03ee",
	{"sz-pwrel", "2d-128x96"}:   "b967e2f2867e7c8c",
	{"sz-pwrel", "3d-16"}:       "323015d2419f04d5",
	{"sz-pwrel", "3d-31x17x9"}:  "1712d20d41b93eba",
	{"sz-pwrel", "3d-40x44x48"}: "de0a8be7831133d0",

	{"sz-cf", "1d-37"}:       "9d7735b0a16ea65a",
	{"sz-cf", "1d-4096"}:     "76266b9d6aec3be8",
	{"sz-cf", "2d-33x47"}:    "9e1cb7343d2fdc5f",
	{"sz-cf", "2d-128x96"}:   "e224d6f035495ac0",
	{"sz-cf", "3d-16"}:       "7969b188212d45f6",
	{"sz-cf", "3d-31x17x9"}:  "070c88b9b3dcb197",
	{"sz-cf", "3d-40x44x48"}: "a8b560420c71cc57",
}

func szGoldenCodec(t *testing.T, name string) *Codec {
	t.Helper()
	switch name {
	case "sz-abs":
		return MustNew(Abs, 1e-5)
	case "sz-rel":
		return MustNew(ValueRangeRel, 1e-3)
	case "sz-pwrel":
		return MustNew(PointwiseRel, 1e-2)
	case "sz-cf":
		return MustNewCurveFit(Abs, 1e-6)
	}
	t.Fatalf("unknown codec fixture %q", name)
	return nil
}

// TestGoldenStreams locks the compressed output to the pre-rewrite scalar
// kernels at workers=1 and workers=8 (cutover disabled so the 8-way
// wavefront genuinely shards even the small fixtures).
func TestGoldenStreams(t *testing.T) {
	for key, want := range szGoldenStreams {
		cn, fn := key[0], key[1]
		f := goldenSynth(t, goldenFields[fn]...)
		base := szGoldenCodec(t, cn)
		for _, workers := range []int{1, 8} {
			cfg := parallel.Config{Workers: workers, MinShardBytes: -1}
			enc, err := base.Compress(context.Background(), f, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", cn, fn, workers, err)
			}
			if got := goldenHash(enc); got != want {
				t.Errorf("%s/%s workers=%d: stream hash %s, want golden %s", cn, fn, workers, got, want)
			}
			back, err := base.Decompress(context.Background(), enc, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=%d decode: %v", cn, fn, workers, err)
			}
			if back.Len() != f.Len() {
				t.Fatalf("%s/%s: round trip length %d != %d", cn, fn, back.Len(), f.Len())
			}
		}
	}
}
