package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lrm/internal/obs"
)

// withTracing flips both observability switches on for one test and
// restores the previous state, registry, and ring afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	pm := obs.SetEnabled(true)
	pt := SetEnabled(true)
	obs.Reset()
	Reset()
	t.Cleanup(func() {
		obs.Reset()
		Reset()
		obs.SetEnabled(pm)
		SetEnabled(pt)
	})
}

func TestDisabledStartReturnsNilSpan(t *testing.T) {
	pm := obs.SetEnabled(false)
	pt := SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(pm)
		SetEnabled(pt)
	})
	ctx := context.Background()
	got, sp := Start(ctx, "disabled.stage")
	if got != ctx {
		t.Error("disabled Start must return the ctx untouched")
	}
	if sp != nil {
		t.Fatalf("disabled Start returned a live span: %+v", sp)
	}
	// Every method must tolerate the nil receiver.
	sp.SetBytes(1, 2)
	sp.AddItems(3)
	sp.SetError(errors.New("ignored"))
	sp.End()
	if sp.Name() != "" || sp.TraceID() != "" || sp.SpanID() != 0 {
		t.Error("nil span accessors must return zero values")
	}
	lctx, restore := WithLabels(ctx, "stage", "x")
	restore()
	if lctx != ctx {
		t.Error("disabled WithLabels must return the ctx untouched")
	}
}

// TestMetricsOnlySpanRecordsStageBundle pins the mode every pipeline stage
// runs in under -stats: metrics on, tracing off. Start must hand back the
// caller's ctx and a live span whose End feeds the whole stage bundle once
// and retains no trace.
func TestMetricsOnlySpanRecordsStageBundle(t *testing.T) {
	pm := obs.SetEnabled(true)
	pt := SetEnabled(false)
	obs.Reset()
	Reset()
	t.Cleanup(func() {
		obs.Reset()
		Reset()
		obs.SetEnabled(pm)
		SetEnabled(pt)
	})

	ctx := context.Background()
	got, sp := Start(ctx, "metrics.only")
	if got != ctx {
		t.Error("metrics-only Start must return the caller's ctx")
	}
	if sp == nil {
		t.Fatal("metrics-only Start returned a nil span")
	}
	if sp.TraceID() != "" || sp.SpanID() != 0 {
		t.Errorf("metrics-only span carries trace identity %q/%d", sp.TraceID(), sp.SpanID())
	}
	sp.SetBytes(100, 40)
	sp.AddItems(3)
	sp.AddItems(4)
	time.Sleep(time.Millisecond) // a duration the histogram cannot miss
	sp.End()

	snap := obs.Snapshot()
	c := snap.Counters
	if got := c["stage.metrics.only.calls"]; got != 1 {
		t.Errorf("calls = %d, want 1", got)
	}
	if got := c["stage.metrics.only.bytes_in"]; got != 100 {
		t.Errorf("bytes_in = %d, want 100", got)
	}
	if got := c["stage.metrics.only.bytes_out"]; got != 40 {
		t.Errorf("bytes_out = %d, want 40", got)
	}
	if got := c["stage.metrics.only.items"]; got != 7 {
		t.Errorf("items = %d, want 7", got)
	}
	h, ok := snap.Histograms["stage.metrics.only.ns"]
	if !ok || h.Count != 1 {
		t.Fatalf("duration histogram missing or count != 1: %+v", h)
	}
	if ns := c["stage.metrics.only.ns_total"]; ns < int64(time.Millisecond) || h.Sum != ns {
		t.Errorf("ns_total = %d, histogram sum = %d: want the same duration of at least 1ms", ns, h.Sum)
	}
	if traces := Snapshot(); len(traces) != 0 {
		t.Errorf("metrics-only span retained %d traces, want 0", len(traces))
	}
	if got := c["trace.finished"]; got != 0 {
		t.Errorf("trace.finished = %d, want 0", got)
	}
}

// TestMetricsOnlySpanEndAllocFree: with metrics on and tracing off, End
// feeds the stage bundle without allocating, so a served request's dozens
// of stage spans cost no garbage when they finish.
func TestMetricsOnlySpanEndAllocFree(t *testing.T) {
	pm := obs.SetEnabled(true)
	pt := SetEnabled(false)
	t.Cleanup(func() {
		obs.Reset()
		obs.SetEnabled(pm)
		SetEnabled(pt)
	})

	const runs = 200
	spans := make([]*Span, runs+1) // AllocsPerRun adds one warm-up call
	for i := range spans {
		_, spans[i] = Start(context.Background(), "metrics.alloc_free")
		spans[i].SetBytes(64, 8)
		spans[i].AddItems(1)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		spans[next].End()
		next++
	})
	if allocs != 0 {
		t.Errorf("metrics-only Span.End allocates %v times per call, want 0", allocs)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	withTracing(t)
	ctx, root := Start(context.Background(), "t.root")
	cctx, child := Start(ctx, "t.child")
	_, gc := Start(cctx, "t.grandchild")
	gc.SetBytes(10, 5)
	gc.End()
	child.SetError(errors.New("boom"))
	child.End()
	root.AddItems(2)
	root.End()

	traces := Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root != "t.root" {
		t.Errorf("root name %q, want t.root", tr.Root)
	}
	if tr.Errs != 1 {
		t.Errorf("Errs = %d, want 1", tr.Errs)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if byName["t.root"].ParentID != 0 {
		t.Error("root span must have parent 0")
	}
	if byName["t.child"].ParentID != byName["t.root"].SpanID {
		t.Error("child must parent onto root")
	}
	if byName["t.grandchild"].ParentID != byName["t.child"].SpanID {
		t.Error("grandchild must parent onto child")
	}
	if byName["t.grandchild"].BytesIn != 10 || byName["t.grandchild"].BytesOut != 5 {
		t.Error("grandchild byte attribution lost")
	}
	if byName["t.child"].Err == "" {
		t.Error("child error message lost")
	}
}

func TestStartAfterRootEndOpensFreshTrace(t *testing.T) {
	withTracing(t)
	ctx, root := Start(context.Background(), "fresh.first")
	first := root.TraceID()
	root.End()
	// The stale ctx still carries the finished span; a new Start must open
	// a fresh trace rather than appending to the snapshotted tree.
	_, sp := Start(ctx, "fresh.second")
	if sp.TraceID() == first {
		t.Error("Start on a completed trace's ctx reused its trace ID")
	}
	sp.End()
	if n := len(Snapshot()); n != 2 {
		t.Errorf("got %d retained traces, want 2", n)
	}
}

func TestStragglerChildIsDropped(t *testing.T) {
	withTracing(t)
	ctx, root := Start(context.Background(), "strag.root")
	_, late := Start(ctx, "strag.late")
	root.End()
	late.End() // outlives its root: must not corrupt the snapshotted trace
	traces := Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if len(traces[0].Spans) != 1 || traces[0].Spans[0].Name != "strag.root" {
		t.Errorf("straggler leaked into the trace: %+v", traces[0].Spans)
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	withTracing(t)
	ctx, root := Start(context.Background(), "cap.root")
	for i := 0; i < maxSpansPerTrace+8; i++ {
		_, sp := Start(ctx, "cap.child")
		sp.End()
	}
	root.End()
	traces := Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != maxSpansPerTrace {
		t.Errorf("got %d spans, want the %d cap", len(tr.Spans), maxSpansPerTrace)
	}
	if tr.Dropped < 8 {
		t.Errorf("Dropped = %d, want >= 8", tr.Dropped)
	}
}

func TestRingRetention(t *testing.T) {
	withTracing(t)
	SetRetention(2, 2)
	t.Cleanup(func() { SetRetention(32, 32) })

	offer(&Trace{ID: 1, Root: "r", Start: 1, Dur: 100})
	offer(&Trace{ID: 2, Root: "r", Start: 2, Dur: 300})
	offer(&Trace{ID: 3, Root: "r", Start: 3, Dur: 200}) // evicts ID 1 (fastest)
	ids := map[uint64]bool{}
	for _, tr := range Snapshot() {
		ids[tr.ID] = true
	}
	if ids[1] || !ids[2] || !ids[3] {
		t.Errorf("slow pool retained %v, want {2,3}", ids)
	}

	// A fast errored trace is always retained via the error ring.
	offer(&Trace{ID: 4, Root: "r", Start: 4, Dur: 1, Errs: 1})
	found := false
	for _, tr := range Snapshot() {
		if tr.ID == 4 {
			found = true
		}
	}
	if !found {
		t.Error("fast errored trace was not retained")
	}

	// A slow errored trace sits in both pools but snapshots once.
	offer(&Trace{ID: 5, Root: "r", Start: 5, Dur: 5000, Errs: 1})
	n := 0
	for _, tr := range Snapshot() {
		if tr.ID == 5 {
			n++
		}
	}
	if n != 1 {
		t.Errorf("trace 5 appeared %d times in Snapshot, want 1 (dedup)", n)
	}

	Reset()
	if len(Snapshot()) != 0 {
		t.Error("Snapshot non-empty after Reset")
	}
}

func TestSnapshotSortedByStart(t *testing.T) {
	withTracing(t)
	offer(&Trace{ID: 10, Root: "r", Start: 300, Dur: 1})
	offer(&Trace{ID: 11, Root: "r", Start: 100, Dur: 2})
	offer(&Trace{ID: 12, Root: "r", Start: 200, Dur: 3})
	snap := Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Start > snap[i].Start {
			t.Fatalf("Snapshot out of order at %d: %d > %d", i, snap[i-1].Start, snap[i].Start)
		}
	}
}

func TestLogHandlerStampsTraceIDs(t *testing.T) {
	withTracing(t)
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))

	ctx, sp := Start(context.Background(), "log.stage")
	logger.InfoContext(ctx, "inside span")
	line := buf.String()
	if !strings.Contains(line, `"trace_id":"`+sp.TraceID()+`"`) {
		t.Errorf("record missing trace_id %s: %s", sp.TraceID(), line)
	}
	if !strings.Contains(line, `"span_id":"`+IDString(sp.SpanID())+`"`) {
		t.Errorf("record missing span_id: %s", line)
	}
	sp.End()

	buf.Reset()
	logger.Info("outside any span")
	if strings.Contains(buf.String(), "trace_id") {
		t.Errorf("untraced record gained a trace_id: %s", buf.String())
	}
}

func TestChromeExportRoundTrip(t *testing.T) {
	withTracing(t)
	ctx, root := Start(context.Background(), "chrome.root")
	_, child := Start(ctx, "chrome.child")
	child.SetBytes(100, 50)
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var sawMeta, sawRoot, sawChild bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M":
			sawMeta = true
		case e.Name == "chrome.root":
			sawRoot = true
		case e.Name == "chrome.child":
			sawChild = true
			if e.Args["parent_id"] == nil || e.Args["bytes_in"] == nil {
				t.Errorf("child args missing parent/bytes: %v", e.Args)
			}
		}
	}
	if !sawMeta || !sawRoot || !sawChild {
		t.Errorf("export missing events: meta=%v root=%v child=%v", sawMeta, sawRoot, sawChild)
	}
}

func TestDebugTracesEndpointAndNoGoroutineLeak(t *testing.T) {
	withTracing(t)
	ctx, sp := Start(context.Background(), "http.probe")
	_ = ctx
	sp.End()

	before := runtime.NumGoroutine()
	srv := httptest.NewServer(obs.Handler())
	var chromeBody []byte
	for _, path := range []string{"/metrics", "/debug/traces", "/debug/traces?format=chrome"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		switch path {
		case "/debug/traces":
			if !strings.Contains(string(body), "http.probe") {
				t.Errorf("text view missing the recorded span: %s", body)
			}
		case "/debug/traces?format=chrome":
			chromeBody = body
		}
	}
	if !json.Valid(chromeBody) {
		t.Error("chrome format endpoint returned invalid JSON")
	}
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle after server close: before=%d now=%d",
		before, runtime.NumGoroutine())
}

func TestTraceCountersAdvance(t *testing.T) {
	withTracing(t)
	snapBefore := obs.Snapshot().Counters["trace.finished"]
	_, sp := Start(context.Background(), "ctr.root")
	sp.End()
	if got := obs.Snapshot().Counters["trace.finished"]; got != snapBefore+1 {
		t.Errorf("trace.finished = %d, want %d", got, snapBefore+1)
	}
}
