package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"lrm/internal/compress/zfp"
	"lrm/internal/invariant"
	"lrm/internal/obs"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
)

// TestPreconditionedRoundTripAllocations pins the buffer ownership of the
// Fig. 5 pipeline on a 64³ Heat3d field: once the arenas are warm, a
// preconditioned Decompress allocates the output field and little else
// (the reconstruction is arena scratch added into the decoded delta), and
// a preconditioned Compress allocates no field-sized buffer at all (the
// reconstruction, the delta and the fit copies are arena scratch). Before
// the arenas carried them both read about 2× the field's bytes. GC is off
// while measuring, so that sync.Pool's per-cycle clearing cannot turn a
// warm arena cold between two calls, and each figure is the median of
// seven calls: a pooled buffer left in one P's private slot is out of reach
// of a goroutine that has moved to another P, so a single call may still
// miss.
func TestPreconditionedRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if invariant.Enabled {
		t.Skip("the invariants build decodes every archive inside Compress")
	}
	pm := obs.SetEnabled(false)
	t.Cleanup(func() { obs.SetEnabled(pm) })
	hc := heat3d.Default(64)
	hc.Steps = 100
	f := heat3d.Solve(hc)
	fieldBytes := float64(8 * f.Len())
	ctx := context.Background()
	cfg := parallel.Config{Workers: 1}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC() // finish any cycle already under way
	perCall := func(fn func()) float64 {
		fn() // warm the arenas
		var got [7]float64
		var m0, m1 runtime.MemStats
		for i := range got {
			runtime.ReadMemStats(&m0)
			fn()
			runtime.ReadMemStats(&m1)
			got[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / fieldBytes
		}
		slices.Sort(got[:])
		return got[len(got)/2]
	}
	for _, m := range []reduce.Model{reduce.OneBase{}, reduce.PCA{}, reduce.Wavelet{}} {
		opts := Options{Model: m, DataCodec: zfp.MustNewAccuracy(1e-4), Parallel: cfg}
		var archive []byte
		c := perCall(func() {
			res, err := Compress(ctx, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			archive = res.Archive
		})
		d := perCall(func() {
			if _, err := Decompress(ctx, archive, DecompressOpts{Parallel: cfg}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: compress %.3f, decompress %.3f field bytes per call", m.Name(), c, d)
		if c >= 1 {
			t.Errorf("%s: Compress allocates %.3f× the field's bytes, want < 1 (no field-sized buffer)", m.Name(), c)
		}
		if d > 1.25 {
			t.Errorf("%s: Decompress allocates %.3f× the field's bytes, want <= 1.25", m.Name(), d)
		}
	}
}

// TestDeltaEnergyHistogramCountsEveryCompress: the delta energy is a
// histogram observation per preconditioned compression, so concurrent
// compressions each count instead of overwriting one gauge.
func TestDeltaEnergyHistogramCountsEveryCompress(t *testing.T) {
	pm := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(pm) })
	f := heatField(t)
	before := obsDeltaEnergy.Snapshot().Count
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Compress(context.Background(), f, Options{Model: reduce.OneBase{}, DataCodec: zfp.MustNewAccuracy(1e-4)}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := obsDeltaEnergy.Snapshot().Count - before; got != 2 {
		t.Errorf("core.delta_energy_ppb count grew by %d over two compressions, want 2", got)
	}
}
