// Overhead guard for the obs layer's own probes: the package promise is that
// with observability off every direct obs call site on a hot path — the
// Enabled() guard in front of quality.Observe, the zfp shards' and the
// pool's Enabled() snapshots that gate their StageAdd flushes — costs one
// atomic load. This test pins that promise as a ratio (the modeled
// disabled cost of those probes per Compress must stay below 2% of the
// measured stage time), so it holds under -race and on slow machines, where
// both sides of the ratio inflate together. The trace layer's guard
// (trace/overhead_test.go) adds the disabled trace.Start lifecycles on top
// and holds the sum to the same budget.
package obs_test

import (
	"context"
	"math"
	"testing"
	"time"

	"lrm/internal/compress"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/obs/quality"
	"lrm/internal/parallel"
)

// disabledProbeNs measures one disabled obs probe of each guard shape the
// codecs execute — a guarded quality.Observe and a guarded StageAdd flush —
// and returns the larger per-probe cost.
func disabledProbeNs() float64 {
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if obs.Enabled() {
			quality.Observe(quality.Event{Source: "overhead.probe"})
		}
	}
	qualityNs := float64(time.Since(start).Nanoseconds()) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		if obs.Enabled() {
			obs.StageAdd("overhead.probe", 1, 1)
		}
	}
	flushNs := float64(time.Since(start).Nanoseconds()) / iters
	return math.Max(qualityNs, flushNs)
}

func TestDisabledOverheadBelowTwoPercent(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	probeNs := disabledProbeNs()
	f := grid.New(128, 128)
	for i := range f.Data {
		f.Data[i] = 100 + 10*math.Sin(float64(i)/9)
	}

	// Per-Compress obs probe budget, counted generously: one guarded
	// quality.Observe per chunk plus one per request, one Enabled()
	// snapshot per zfp shard and one per pool call. 8 covers a generous
	// chunk and shard count at Workers: 1.
	const probesPerCompress = 8

	cases := []struct {
		name  string
		codec compress.Codec
	}{
		{"sz.compress", sz.MustNew(sz.Abs, 1e-4)},
		{"zfp.compress", zfp.MustNew(16)},
	}
	for _, tc := range cases {
		run := func() {
			if _, err := tc.codec.Compress(context.Background(), f, parallel.Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up before timing
		const runs = 5
		start := time.Now()
		for i := 0; i < runs; i++ {
			run()
		}
		stageNs := float64(time.Since(start).Nanoseconds()) / runs

		overhead := probesPerCompress * probeNs
		ratio := overhead / stageNs
		t.Logf("%s: stage %.0f ns, disabled obs probe cost %.1f ns (%.4f%%)",
			tc.name, stageNs, overhead, 100*ratio)
		if ratio >= 0.02 {
			t.Errorf("%s: disabled obs probe overhead %.2f%% exceeds the 2%% budget (probe %.1f ns, stage %.0f ns)",
				tc.name, 100*ratio, probeNs, stageNs)
		}
	}
}
