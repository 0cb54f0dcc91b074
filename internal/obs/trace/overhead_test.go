// Disabled-overhead guard for the trace layer, the PR-4 promise extended:
// with both observability switches off a trace.Start costs one atomic load
// and returns (ctx, nil), so instrumenting the hot paths with spans and
// pprof labels must stay under 2% of real stage time. Modeled the same way
// as internal/obs's guard so it holds under -race and on slow machines.
package trace_test

import (
	"context"
	"math"
	"testing"
	"time"

	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/obs"
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
	f := overheadField()
	codec := zfp.MustNew(16)
	compress := func() {
		if _, err := codec.Compress(context.Background(), f, parallel.Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	compress() // warm up before timing

	const runs = 5
	start := time.Now()
	for i := 0; i < runs; i++ {
		compress()
	}
	stageNs := float64(time.Since(start).Nanoseconds()) / runs

	// One zfp.compress executes the root span plus a shard span per block
	// row; 16 full lifecycles (each including a WithLabels pair the codec
	// path doesn't even perform) over-counts the real call sites.
	const lifecyclesPerCompress = 16
	overhead := lifecyclesPerCompress * lifecycleNs
	ratio := overhead / stageNs
	t.Logf("zfp.compress: stage %.0f ns, disabled trace cost %.1f ns (%.4f%%)",
		stageNs, overhead, 100*ratio)
	if ratio >= 0.02 {
		t.Errorf("disabled trace overhead %.2f%% exceeds the 2%% budget (lifecycle %.1f ns, stage %.0f ns)",
			100*ratio, lifecycleNs, stageNs)
	}
}

// BenchmarkDisabledTraceLifecycle reports the raw disabled cost — the
// number the "one atomic load" claim cashes out to for the trace layer.
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
