// Overhead guard: the package promise is that disabled-mode instrumentation
// costs one atomic load per guard, so instrumenting the compression hot
// paths must be effectively free when nobody is looking. This test pins
// that promise as a ratio — the modeled disabled-mode cost of every obs
// call site a Compress executes must stay below 2% of the measured stage
// time — so it holds under -race and on slow machines, where both sides of
// the ratio inflate together.
package obs_test

import (
	"context"
	"math"
	"testing"
	"time"

	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/obs/quality"
	"lrm/internal/parallel"
)

// sink defeats dead-code elimination of the measured loops.
var sink *obs.Span

// overheadField is large enough that a serial compress takes well over the
// timer granularity but small enough to keep the test fast.
func overheadField() *grid.Field {
	f := grid.New(128, 128)
	for i := range f.Data {
		f.Data[i] = 100 + 10*math.Sin(float64(i)/9)
	}
	return f
}

// disabledLifecycleNs measures one full disabled span lifecycle — the exact
// call shape the sz stage spans use: root Start, a child with byte and item
// attribution, both ended — plus an Enabled() guard.
func disabledLifecycleNs() float64 {
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		sp := obs.Start("overhead.probe")
		cs := sp.StartChild("overhead.probe.child")
		cs.SetBytes(1, 2)
		cs.AddItems(3)
		cs.End()
		if obs.Enabled() {
			sp.AddItems(1)
		}
		sp.End()
		sink = sp
	}
	return float64(time.Since(start).Nanoseconds()) / iters
}

// disabledQualityNs measures the disabled cost of one quality-telemetry
// probe in the exact guard shape core.CompressChunkedCtx uses: an
// Enabled() check in front of quality.Observe, so a disabled probe is one
// atomic load and the Event literal is never built.
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

// stageNs measures the average serial wall time of fn over a few runs.
func stageNs(runs int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < runs; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(runs)
}

func TestDisabledOverheadBelowTwoPercent(t *testing.T) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)

	lifecycleNs := disabledLifecycleNs()
	qualityNs := disabledQualityNs()
	f := overheadField()

	// Per-Compress disabled call-site budgets, counted generously from the
	// instrumentation: sz runs a root span, three stage children, and two
	// counter guards (≈5 lifecycles — budget 8); zfp runs a root span plus
	// one Enabled() snapshot per encodeBlocks shard (budget 8 covers many
	// shards). Each budget unit is a FULL root+child lifecycle, so the model
	// overstates the real cost. The quality probes add one guarded
	// quality.Observe per chunk plus one per request (budget 8 covers a
	// generous chunk count). The history sampler has no per-Compress call
	// sites at all — it is a background goroutine over the registry — so it
	// contributes nothing to this model by construction.
	const lifecyclesPerCompress = 8
	const qualityProbesPerCompress = 8

	cases := []struct {
		name string
		fn   func()
	}{
		{"sz.compress", func() {
			c := sz.MustNew(sz.Abs, 1e-4)
			if _, err := c.Compress(context.Background(), f, parallel.Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}},
		{"zfp.compress", func() {
			c := zfp.MustNew(16)
			if _, err := c.Compress(context.Background(), f, parallel.Config{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm up before timing
		stage := stageNs(5, tc.fn)
		overhead := lifecyclesPerCompress*lifecycleNs + qualityProbesPerCompress*qualityNs
		ratio := overhead / stage
		t.Logf("%s: stage %.0f ns, disabled obs cost %.1f ns (%.4f%%)",
			tc.name, stage, overhead, 100*ratio)
		if ratio >= 0.02 {
			t.Errorf("%s: disabled instrumentation overhead %.2f%% exceeds the 2%% budget (lifecycle %.1f ns, quality probe %.1f ns, stage %.0f ns)",
				tc.name, 100*ratio, lifecycleNs, qualityNs, stage)
		}
	}
}

// BenchmarkDisabledSpanLifecycle reports the raw disabled lifecycle cost —
// the number the package doc's "one atomic load" claim cashes out to.
func BenchmarkDisabledSpanLifecycle(b *testing.B) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := obs.Start("overhead.bench")
		cs := sp.StartChild("overhead.bench.child")
		cs.SetBytes(1, 2)
		cs.End()
		sp.End()
		sink = sp
	}
}

// BenchmarkEnabledSpanLifecycle is the enabled-mode counterpart, for
// judging the cost of turning -stats on.
func BenchmarkEnabledSpanLifecycle(b *testing.B) {
	prev := obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(prev)
		obs.Reset()
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := obs.Start("overhead.bench")
		cs := sp.StartChild("overhead.bench.child")
		cs.SetBytes(1, 2)
		cs.End()
		sp.End()
		sink = sp
	}
}
