package zfp

import (
	"context"
	"fmt"
	"testing"

	"lrm/internal/obs"
	"lrm/internal/parallel"
)

// stageAccounting is what one encode leaves in the registry for the three
// per-block stages and the planes-per-block histogram.
type stageAccounting struct {
	calls, items [3]int64 // align, transform, plane_code
	planes       []int64  // zfp.planes_per_block bucket counts
	planesSum    int64
	stream       string // goldenHash of the encoded stream
}

var encodeStages = [3]string{"zfp.align", "zfp.transform", "zfp.plane_code"}

// stageAccountingWant pins the encode-side accounting: calls (one flush per
// shard) and items (blocks; non-empty blocks for transform and
// plane_code), the planes-per-block counts, and the stream itself. Timing
// is sampled, so only the counts are exact; the stage times must merely
// be positive.
var stageAccountingWant = map[string]stageAccounting{
	"zfp-a1e-6/3d-4/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1, 1, 1},
		planes: []int64{0, 0, 0, 1, 0, 0, 0, 0, 0}, planesSum: 32,
		stream: "efacb442cbba94b0",
	},
	"zfp-a1e-6/3d-4/w4": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1, 1, 1},
		planes: []int64{0, 0, 0, 1, 0, 0, 0, 0, 0}, planesSum: 32,
		stream: "efacb442cbba94b0",
	},
	"zfp-a1e-6/3d-40x44x48/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1320, 1320, 1320},
		planes: []int64{0, 0, 0, 1320, 0, 0, 0, 0, 0}, planesSum: 42209,
		stream: "035231bbd0a46aec",
	},
	"zfp-a1e-6/3d-40x44x48/w4": {
		calls: [3]int64{4, 4, 4}, items: [3]int64{1320, 1320, 1320},
		planes: []int64{0, 0, 0, 1320, 0, 0, 0, 0, 0}, planesSum: 42209,
		stream: "035231bbd0a46aec",
	},
	"zfp-p16/3d-4/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1, 1, 1},
		planes: []int64{0, 1, 0, 0, 0, 0, 0, 0, 0}, planesSum: 16,
		stream: "22c90ca88b66bc70",
	},
	"zfp-p16/3d-4/w4": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1, 1, 1},
		planes: []int64{0, 1, 0, 0, 0, 0, 0, 0, 0}, planesSum: 16,
		stream: "22c90ca88b66bc70",
	},
	"zfp-p16/3d-40x44x48/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1320, 1320, 1320},
		planes: []int64{0, 1320, 0, 0, 0, 0, 0, 0, 0}, planesSum: 21120,
		stream: "e3aa206f20a45a8d",
	},
	"zfp-p16/3d-40x44x48/w4": {
		calls: [3]int64{4, 4, 4}, items: [3]int64{1320, 1320, 1320},
		planes: []int64{0, 1320, 0, 0, 0, 0, 0, 0, 0}, planesSum: 21120,
		stream: "e3aa206f20a45a8d",
	},
	"zfp-a1e-6/3d-40x44x48-halfzero/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1320, 660, 660},
		planes: []int64{0, 0, 0, 660, 0, 0, 0, 0, 0}, planesSum: 21101,
		stream: "48d256e6a9fe0cb2",
	},
	"zfp-a1e-6/3d-40x44x48-halfzero/w4": {
		calls: [3]int64{4, 4, 4}, items: [3]int64{1320, 660, 660},
		planes: []int64{0, 0, 0, 660, 0, 0, 0, 0, 0}, planesSum: 21101,
		stream: "48d256e6a9fe0cb2",
	},
	"zfp-p16/3d-40x44x48-halfzero/w1": {
		calls: [3]int64{1, 1, 1}, items: [3]int64{1320, 660, 660},
		planes: []int64{0, 660, 0, 0, 0, 0, 0, 0, 0}, planesSum: 10560,
		stream: "88816e10b604af0a",
	},
	"zfp-p16/3d-40x44x48-halfzero/w4": {
		calls: [3]int64{4, 4, 4}, items: [3]int64{1320, 660, 660},
		planes: []int64{0, 660, 0, 0, 0, 0, 0, 0, 0}, planesSum: 10560,
		stream: "88816e10b604af0a",
	},
}

// TestEncodeStageAccounting: the encode loop's sampled clock changes what
// the stage timers cost, not what they count. On a one-block field and on
// 40×44×48, at one and four workers, the align/transform/plane_code calls
// and items, the planes-per-block histogram and the stream bytes equal the
// values every-block timing recorded, and each stage still reports time.
func TestEncodeStageAccounting(t *testing.T) {
	pm := obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(pm)
		obs.Reset()
	})
	for _, cn := range []string{"zfp-a1e-6", "zfp-p16"} {
		for _, fd := range []struct {
			name string
			dims []int
			zero int // leading values set to 0, so their blocks are empty
		}{
			{"3d-4", []int{4, 4, 4}, 0},
			{"3d-40x44x48", []int{40, 44, 48}, 0},
			{"3d-40x44x48-halfzero", []int{40, 44, 48}, 20 * 44 * 48},
		} {
			f := goldenSynth(t, fd.dims...)
			clear(f.Data[:fd.zero])
			for _, workers := range []int{1, 4} {
				key := fmt.Sprintf("%s/%s/w%d", cn, fd.name, workers)
				obs.Reset()
				enc, err := zfpGoldenCodec(t, cn).Compress(context.Background(), f,
					parallel.Config{Workers: workers, MinShardBytes: -1})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				snap := obs.Snapshot()
				var got stageAccounting
				for i, st := range encodeStages {
					got.calls[i] = snap.Counters["stage."+st+".calls"]
					got.items[i] = snap.Counters["stage."+st+".items"]
					if ns := snap.Counters["stage."+st+".ns_total"]; ns <= 0 {
						t.Errorf("%s: stage.%s.ns_total = %d, want > 0", key, st, ns)
					}
				}
				h := snap.Histograms["zfp.planes_per_block"]
				got.planes, got.planesSum = h.Counts, h.Sum
				got.stream = goldenHash(enc)

				want, ok := stageAccountingWant[key]
				if !ok {
					t.Errorf("%s: no pinned accounting; got %+v", key, got)
					continue
				}
				if got.calls != want.calls || got.items != want.items {
					t.Errorf("%s: calls %v items %v, want calls %v items %v", key, got.calls, got.items, want.calls, want.items)
				}
				if fmt.Sprint(got.planes) != fmt.Sprint(want.planes) || got.planesSum != want.planesSum {
					t.Errorf("%s: planes_per_block counts %v sum %d, want %v sum %d", key, got.planes, got.planesSum, want.planes, want.planesSum)
				}
				if got.stream != want.stream {
					t.Errorf("%s: stream hash %s, want %s", key, got.stream, want.stream)
				}
			}
		}
	}
}
