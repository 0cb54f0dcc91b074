package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
	"lrm/internal/stats"
)

func heatSeries(t *testing.T, n, steps, count int) []*grid.Field {
	t.Helper()
	cfg := heat3d.Default(n)
	cfg.Steps = steps
	return heat3d.Snapshots(cfg, count)
}

func TestSeriesRoundTripWithinBound(t *testing.T) {
	snaps := heatSeries(t, 16, 60, 6)
	opts := Options{
		Model:      reduce.OneBase{},
		DataCodec:  sz.MustNew(sz.Abs, 1e-5),
		DeltaCodec: sz.MustNew(sz.Abs, 1e-4),
	}
	res, err := CompressSeries(context.Background(), snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := DecompressSeries(context.Background(), res.Archive, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(snaps) {
		t.Fatalf("frames = %d, want %d", len(frames), len(snaps))
	}
	// Every frame's error is bounded by ONE delta pass (the rolling
	// reconstruction stops error accumulation); the first frame went
	// through the preconditioned pipeline with both bounds in play.
	for i := range snaps {
		maxErr := stats.MaxAbsError(snaps[i].Data, frames[i].Data)
		if maxErr > 2.1e-4 {
			t.Fatalf("frame %d error %v accumulates beyond bound", i, maxErr)
		}
	}
}

func TestSeriesBeatsIndependentCompression(t *testing.T) {
	// Slowly evolving data: temporal deltas are much smaller than frames.
	// The win requires an absolute-error codec — fixed-precision ZFP spends
	// the same planes per block regardless of magnitude, but in accuracy
	// mode the small deltas need far fewer planes.
	snaps := heatSeries(t, 16, 40, 8)
	codec := zfp.MustNewAccuracy(1e-6)
	series, err := CompressSeries(context.Background(), snaps, Options{DataCodec: codec})
	if err != nil {
		t.Fatal(err)
	}
	independent := 0
	for _, s := range snaps {
		res, err := Compress(context.Background(), s, Options{DataCodec: codec})
		if err != nil {
			t.Fatal(err)
		}
		independent += len(res.Archive)
	}
	if len(series.Archive) >= independent {
		t.Fatalf("series (%dB) did not beat independent frames (%dB)", len(series.Archive), independent)
	}
	if series.Ratio() <= 1 {
		t.Fatalf("series ratio = %v", series.Ratio())
	}
	if len(series.FrameBytes) != len(snaps) {
		t.Fatalf("frame accounting = %d entries", len(series.FrameBytes))
	}
	// Later frames must be cheaper than frame 0 (they are deltas).
	for i := 1; i < len(series.FrameBytes); i++ {
		if series.FrameBytes[i] >= series.FrameBytes[0] {
			t.Fatalf("delta frame %d (%dB) not cheaper than keyframe (%dB)",
				i, series.FrameBytes[i], series.FrameBytes[0])
		}
	}
}

func TestSeriesLosslessNearExact(t *testing.T) {
	// With a lossless delta codec the only error is the floating-point
	// re-rounding of (f - prev) + prev: a few ulps, never amplified across
	// frames (the rolling reconstruction is what gets delta'd against).
	snaps := heatSeries(t, 12, 30, 4)
	codec := fpc.MustNew(10)
	res, err := CompressSeries(context.Background(), snaps, Options{DataCodec: codec})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := DecompressSeries(context.Background(), res.Archive, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range snaps {
		for j := range snaps[i].Data {
			ref := snaps[i].Data[j]
			if d := frames[i].Data[j] - ref; d > 1e-12*(1+ref) || d < -1e-12*(1+ref) {
				t.Fatalf("lossless series off by %v at frame %d idx %d", d, i, j)
			}
		}
	}
}

func TestSeriesSingleFrame(t *testing.T) {
	snaps := heatSeries(t, 12, 20, 1)
	res, err := CompressSeries(context.Background(), snaps, Options{DataCodec: zfp.MustNew(16)})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := DecompressSeries(context.Background(), res.Archive, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
}

func TestSeriesValidation(t *testing.T) {
	if _, err := CompressSeries(context.Background(), nil, Options{DataCodec: zfp.MustNew(8)}); err == nil {
		t.Fatal("expected empty-series rejection")
	}
	if _, err := CompressSeries(context.Background(), []*grid.Field{grid.New(4)}, Options{}); err == nil {
		t.Fatal("expected missing-codec rejection")
	}
	// Dim changes mid-series must fail cleanly.
	snaps := []*grid.Field{grid.New(4, 4), grid.New(5, 5)}
	if _, err := CompressSeries(context.Background(), snaps, Options{DataCodec: zfp.MustNew(8)}); err == nil {
		t.Fatal("expected dims-mismatch rejection")
	}
}

func TestSeriesGarbage(t *testing.T) {
	snaps := heatSeries(t, 12, 20, 3)
	res, err := CompressSeries(context.Background(), snaps, Options{DataCodec: zfp.MustNew(12)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(res.Archive); cut += 13 {
		if _, err := DecompressSeries(context.Background(), res.Archive[:cut], DecompressOpts{}); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecompressSeries(context.Background(), append(res.Archive, 1), DecompressOpts{}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecompressSeries(context.Background(), []byte("LRMX123"), DecompressOpts{}); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Only DecompressSeries reads a series archive.
	if _, err := Decompress(context.Background(), res.Archive, DecompressOpts{}); !errors.Is(err, compress.ErrHeader) {
		t.Fatalf("LRMS passed to Decompress: error %v, want ErrHeader", err)
	}
}

// TestSeriesHonoursParallelBudget pins Options.Parallel on every frame, not
// only frame 0: at Workers: 1 the delta frames must not fork the pool, and
// the budget must not change a byte of the archive.
func TestSeriesHonoursParallelBudget(t *testing.T) {
	pm := obs.SetEnabled(true)
	obs.Reset()
	t.Cleanup(func() {
		obs.Reset()
		obs.SetEnabled(pm)
	})
	snaps := heatSeries(t, 64, 40, 3)
	ctx := context.Background()

	pooled := obs.GetHistogram("parallel.task.ns", nil)
	p0 := pooled.Snapshot().Count
	serial, err := CompressSeries(ctx, snaps, Options{DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := pooled.Snapshot().Count - p0; n != 0 {
		t.Errorf("series at Workers: 1 ran %d pooled tasks, want 0", n)
	}

	def, err := CompressSeries(ctx, snaps, Options{DataCodec: zfp.MustNew(16)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Archive, def.Archive) {
		t.Error("series archive at Workers: 1 differs from the default budget")
	}
}
