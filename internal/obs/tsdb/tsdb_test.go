package tsdb_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/tsdb"
)

// evalOne runs a single-name query and returns its points (nil when the
// series does not exist or has no points).
func evalOne(s *tsdb.Store, name string, rate bool, now time.Time) [][2]float64 {
	for _, sn := range s.Eval(tsdb.Query{Names: []string{name}, Rate: rate}, now) {
		if sn.Name == name {
			return sn.Points
		}
	}
	return nil
}

func TestSampleRecordsCountersGaugesFloats(t *testing.T) {
	c := obs.GetCounter("tsdbtest.sample.ctr")
	g := obs.GetGauge("tsdbtest.sample.gauge")
	fg := obs.GetFloatGauge("tsdbtest.sample.float")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{})
	t0 := time.UnixMilli(1_000_000)
	c.Add(5)
	g.Set(7)
	fg.Set(2.5)
	s.SampleOnce(t0)
	c.Add(5)
	g.Set(3)
	s.SampleOnce(t0.Add(2 * time.Second))

	now := t0.Add(3 * time.Second)
	pts := evalOne(s, "tsdbtest.sample.ctr", false, now)
	if len(pts) != 2 || pts[0][1] != 5 || pts[1][1] != 10 {
		t.Fatalf("counter points = %v, want raw values [5 10]", pts)
	}
	if pts[0][0] >= pts[1][0] {
		t.Fatalf("points not chronological: %v", pts)
	}
	if got := evalOne(s, "tsdbtest.sample.gauge", false, now); len(got) != 2 || got[1][1] != 3 {
		t.Fatalf("gauge points = %v, want last 3", got)
	}
	if got := evalOne(s, "tsdbtest.sample.float", false, now); len(got) != 2 || got[1][1] != 2.5 {
		t.Fatalf("float gauge points = %v, want 2.5", got)
	}
	if s.Samples() != 2 {
		t.Fatalf("Samples() = %d, want 2", s.Samples())
	}
}

func TestCounterRateDerivation(t *testing.T) {
	c := obs.GetCounter("tsdbtest.rate.ctr")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{})
	t0 := time.UnixMilli(2_000_000)
	c.Add(10)
	s.SampleOnce(t0)
	c.Add(6)
	s.SampleOnce(t0.Add(2 * time.Second))

	pts := evalOne(s, "tsdbtest.rate.ctr", true, t0.Add(3*time.Second))
	// The first raw point has no predecessor: one rate point remains.
	if len(pts) != 1 {
		t.Fatalf("rate points = %v, want exactly 1", pts)
	}
	if got := pts[0][1]; math.Abs(got-3) > 1e-9 { // 6 over 2s
		t.Fatalf("rate = %v, want 3/s", got)
	}
}

func TestCounterResetClampsRate(t *testing.T) {
	c := obs.GetCounter("tsdbtest.reset.ctr")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{})
	t0 := time.UnixMilli(3_000_000)
	c.Add(100)
	s.SampleOnce(t0)
	obs.Reset() // counter rewinds to 0
	c.Add(4)
	s.SampleOnce(t0.Add(time.Second))

	pts := evalOne(s, "tsdbtest.reset.ctr", true, t0.Add(2*time.Second))
	if len(pts) != 1 {
		t.Fatalf("rate points = %v, want 1", pts)
	}
	// The rewind must clamp to "new value is the whole delta", never negative.
	if got := pts[0][1]; got < 0 || math.Abs(got-4) > 1e-9 {
		t.Fatalf("post-reset rate = %v, want 4/s", got)
	}
}

func TestHistogramDerivedSeries(t *testing.T) {
	h := obs.GetHistogram("tsdbtest.hist", []int64{10, 100, 1000})
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{})
	t0 := time.UnixMilli(4_000_000)
	s.SampleOnce(t0) // establishes the window baseline; no p99 point (count 0)
	for i := 0; i < 99; i++ {
		h.Observe(5)
	}
	h.Observe(500)
	s.SampleOnce(t0.Add(time.Second))

	now := t0.Add(2 * time.Second)
	cnt := evalOne(s, "tsdbtest.hist.count", false, now)
	if len(cnt) != 2 || cnt[1][1] != 100 {
		t.Fatalf("count points = %v, want last 100", cnt)
	}
	p99 := evalOne(s, "tsdbtest.hist.p99", false, now)
	if len(p99) != 1 {
		t.Fatalf("p99 points = %v, want exactly 1 (no observations before first pass)", p99)
	}
	// rank = 0.99*100 = 99 -> the 99th observation is a 5, bucket bound 10.
	if p99[0][1] != 10 {
		t.Fatalf("windowed p99 = %v, want bucket bound 10", p99[0][1])
	}

	// A pass with no new observations adds no p99 point.
	s.SampleOnce(t0.Add(2 * time.Second))
	if got := evalOne(s, "tsdbtest.hist.p99", false, t0.Add(3*time.Second)); len(got) != 1 {
		t.Fatalf("idle pass added p99 points: %v", got)
	}
}

func TestRingCapacityWrap(t *testing.T) {
	c := obs.GetCounter("tsdbtest.wrap.ctr")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{Capacity: 4})
	t0 := time.UnixMilli(5_000_000)
	for i := 0; i < 10; i++ {
		c.Inc()
		s.SampleOnce(t0.Add(time.Duration(i) * time.Second))
	}
	pts := evalOne(s, "tsdbtest.wrap.ctr", false, t0.Add(time.Hour))
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want capacity 4", len(pts))
	}
	if pts[len(pts)-1][1] != 10 {
		t.Fatalf("newest point = %v, want the final value 10", pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] <= pts[i-1][0] {
			t.Fatalf("points not chronological after wrap: %v", pts)
		}
	}
}

func TestMaxSeriesCapCountsDropped(t *testing.T) {
	obs.GetCounter("tsdbtest.cap.a")
	obs.GetCounter("tsdbtest.cap.b")
	obs.GetCounter("tsdbtest.cap.c")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{MaxSeries: 2})
	s.SampleOnce(time.UnixMilli(6_000_000))
	if s.DroppedSeries() == 0 {
		t.Fatal("MaxSeries cap never counted a dropped series")
	}
	if got := len(s.Eval(tsdb.Query{}, time.Now())); got > 2 {
		t.Fatalf("store retained %d series, cap is 2", got)
	}
}

func TestRuntimeBridgeSeries(t *testing.T) {
	s := tsdb.New(tsdb.Config{})
	s.SampleOnce(time.Now())
	series := s.Eval(tsdb.Query{Match: "runtime."}, time.Now())
	names := map[string]bool{}
	for _, sn := range series {
		names[sn.Name] = true
	}
	for _, want := range []string{"runtime.goroutines", "runtime.heap_bytes", "runtime.total_alloc_bytes", "runtime.gc_cycles"} {
		if !names[want] {
			t.Errorf("runtime bridge missing series %q (have %v)", want, names)
		}
	}
	for _, sn := range series {
		if sn.Name == "runtime.goroutines" && sn.Points[len(sn.Points)-1][1] < 1 {
			t.Errorf("runtime.goroutines = %v, want >= 1", sn.Points)
		}
	}
}

func TestEvalClipAndDownsample(t *testing.T) {
	g := obs.GetGauge("tsdbtest.clip.gauge")
	t.Cleanup(obs.Reset)

	s := tsdb.New(tsdb.Config{})
	t0 := time.UnixMilli(7_000_000)
	for i := 0; i < 20; i++ {
		g.Set(int64(i))
		s.SampleOnce(t0.Add(time.Duration(i) * time.Second))
	}
	now := t0.Add(time.Hour)

	// Clip to the middle ten seconds.
	from, to := t0.Add(5*time.Second).UnixMilli(), t0.Add(14*time.Second).UnixMilli()
	series := s.Eval(tsdb.Query{Names: []string{"tsdbtest.clip.gauge"}, From: from, To: to}, now)
	if len(series) != 1 || len(series[0].Points) != 10 {
		t.Fatalf("clipped eval = %+v, want 10 points", series)
	}
	for _, p := range series[0].Points {
		if int64(p[0]) < from || int64(p[0]) > to {
			t.Fatalf("point %v outside [%d,%d]", p, from, to)
		}
	}

	// Downsample to 5: newest point must survive.
	series = s.Eval(tsdb.Query{Names: []string{"tsdbtest.clip.gauge"}, MaxPoints: 5}, now)
	pts := series[0].Points
	if len(pts) > 5 {
		t.Fatalf("downsample kept %d points, want <= 5", len(pts))
	}
	if pts[len(pts)-1][1] != 19 {
		t.Fatalf("downsample dropped the newest point: %v", pts)
	}

	// Since selects the trailing window relative to now.
	series = s.Eval(tsdb.Query{Names: []string{"tsdbtest.clip.gauge"}, Since: now.Sub(t0.Add(15 * time.Second))}, now)
	if len(series) != 1 || len(series[0].Points) != 5 {
		t.Fatalf("since eval = %+v, want the last 5 points", series)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	s := tsdb.New(tsdb.Config{Interval: 5 * time.Millisecond})
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Samples() < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Samples() < 3 {
		t.Fatal("background sampler never accumulated 3 passes")
	}
	s.Stop()
	after := s.Samples()
	s.Stop() // idempotent
	time.Sleep(20 * time.Millisecond)
	if got := s.Samples(); got != after {
		t.Fatalf("samples advanced after Stop: %d -> %d", after, got)
	}
}

// TestWriteJSONHistoryFile: the retained history written through
// WriteJSON (lrmexp's -history file) is the /debug/history document, and
// one sampling pass is enough to carry a counter's value.
func TestWriteJSONHistoryFile(t *testing.T) {
	c := obs.GetCounter("tsdbtest.dump.ctr")
	t.Cleanup(obs.Reset)
	c.Add(3)

	s := tsdb.New(tsdb.Config{})
	s.SampleOnce(time.Now())

	hp := filepath.Join(t.TempDir(), "hist.json")
	f, err := os.Create(hp)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f, tsdb.Query{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	hist, err := os.ReadFile(hp)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Samples int64             `json:"samples"`
		Series  []tsdb.SeriesSnap `json:"series"`
	}
	if err := json.Unmarshal(hist, &doc); err != nil {
		t.Fatalf("history file is not valid JSON: %v", err)
	}
	if doc.Samples != 1 {
		t.Fatalf("history file: samples=%d, want 1", doc.Samples)
	}
	for _, sn := range doc.Series {
		if sn.Name == "tsdbtest.dump.ctr" {
			if sn.Kind != "counter" || len(sn.Points) != 1 || sn.Points[0][1] != 3 {
				t.Fatalf("history file: %s = %+v, want one counter point of 3", sn.Name, sn)
			}
			return
		}
	}
	t.Fatalf("history file has no tsdbtest.dump.ctr among %d series", len(doc.Series))
}
