// Disabled-overhead guard: with both observability switches off a
// trace.Start costs one atomic load and returns (ctx, nil), and every other
// probe sits behind an obs.Enabled() check, so instrumenting the
// compression hot paths must be effectively free when nobody is looking.
// The promise is pinned as a ratio — the modeled disabled-mode cost of the
// call sites one Compress executes must stay below 2% of the measured
// stage time — so it holds under -race and on slow machines, where both
// sides of the ratio inflate together.
package trace_test

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
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// sink defeats dead-code elimination of the measured loop.
var sink *trace.Span

// disabledLifecycleNs measures one full disabled trace call shape — the
// exact sequence a chunk worker executes: WithLabels, Start, byte and item
// attribution, End — averaged over many iterations.
func disabledLifecycleNs() float64 {
	const iters = 200_000
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < iters; i++ {
		lctx, restore := trace.WithLabels(ctx, "stage", "probe")
		sctx, sp := trace.Start(lctx, "overhead.probe")
		_ = sctx
		sp.SetBytes(1, 2)
		sp.AddItems(3)
		sp.SetError(nil)
		sp.End()
		restore()
		sink = sp
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// disabledQualityNs measures the disabled cost of one quality-telemetry
// probe in the guard shape core.CompressChunked uses: an Enabled() check
// in front of quality.Observe, so a disabled probe is one atomic load and
// the Event literal is never built. The zfp shards' Enabled() snapshots
// have the same shape.
func disabledQualityNs() float64 {
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if obs.Enabled() {
			quality.Observe(quality.Event{Source: "overhead.probe"})
		}
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

func overheadField() *grid.Field {
	f := grid.New(128, 128)
	for i := range f.Data {
		f.Data[i] = 100 + 10*math.Sin(float64(i)/9)
	}
	return f
}

func TestTraceDisabledOverheadBelowTwoPercent(t *testing.T) {
	pm := obs.SetEnabled(false)
	pt := trace.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})

	lifecycleNs := disabledLifecycleNs()
	qualityNs := disabledQualityNs()
	f := overheadField()

	// Per-Compress disabled call-site budgets, counted generously: sz runs
	// a root span and three stage spans; zfp runs a root span plus a shard
	// span and one Enabled() snapshot per shard. 16 full lifecycles (each
	// including a WithLabels pair the codec paths don't even perform) and
	// 8 guarded probes (one quality.Observe per chunk plus one per request,
	// or one Enabled() snapshot per shard) over-count the real call sites.
	const lifecyclesPerCompress = 16
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

		overhead := lifecyclesPerCompress*lifecycleNs + probesPerCompress*qualityNs
		ratio := overhead / stageNs
		t.Logf("%s: stage %.0f ns, disabled obs cost %.1f ns (%.4f%%)",
			tc.name, stageNs, overhead, 100*ratio)
		if ratio >= 0.02 {
			t.Errorf("%s: disabled instrumentation overhead %.2f%% exceeds the 2%% budget (lifecycle %.1f ns, probe %.1f ns, stage %.0f ns)",
				tc.name, 100*ratio, lifecycleNs, qualityNs, stageNs)
		}
	}
}

// BenchmarkDisabledTraceLifecycle reports the raw disabled cost — the
// number the "one atomic load" claim cashes out to.
func BenchmarkDisabledTraceLifecycle(b *testing.B) {
	pm := obs.SetEnabled(false)
	pt := trace.SetEnabled(false)
	b.Cleanup(func() {
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := trace.Start(ctx, "overhead.bench")
		sp.SetBytes(1, 2)
		sp.End()
		sink = sp
	}
}

// BenchmarkEnabledTraceLifecycle is the tracing-on counterpart, for judging
// the cost of flipping -trace on.
func BenchmarkEnabledTraceLifecycle(b *testing.B) {
	pm := obs.SetEnabled(true)
	pt := trace.SetEnabled(true)
	b.Cleanup(func() {
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
		obs.Reset()
		trace.Reset()
	})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := trace.Start(ctx, "overhead.bench")
		sp.SetBytes(1, 2)
		sp.End()
		sink = sp
	}
}
