// Package trace layers hierarchical, context-propagated tracing on the obs
// metrics core. A trace is a tree of spans sharing one trace ID: Start
// parents the new span onto the span carried by ctx (or opens a new trace
// when ctx carries none), and finished traces land in a bounded ring with
// tail-based retention — the slowest N plus every trace containing an
// error — exportable as Chrome trace_event JSON (WriteChromeTrace,
// Perfetto-loadable) or browsable at /debug/traces next to /metrics.
//
// # Relationship to plain obs spans
//
// A trace span is a superset of an obs.Span: End feeds the same
// stage.<name>.{ns,ns_total,calls,bytes_in,bytes_out,items} metric bundle
// whenever metrics are enabled, and additionally stamps the latency
// histogram's bucket with the span's trace ID as an exemplar, so a fat
// bucket in /metrics links to a concrete retained trace. Instrumented code
// migrates from
//
//	sp := obs.Start("core.compress")   // metrics only
//
// to
//
//	ctx, sp := trace.Start(ctx, "core.compress") // metrics + causal tree
//	defer sp.End()
//
// and child stages started from ctx attach under the parent automatically,
// including across the worker pool (a task closure captures the
// submitting goroutine's ctx, so chunk shards nest under their chunk span
// rather than orphaning).
//
// # The disabled fast path
//
// Both switches off (the default) costs exactly one atomic load per Start:
// obs.State() packs the metrics and tracing bits into one word, and Start
// returns (ctx, nil) untouched. All Span methods are nil-receiver-safe.
//
// # Correlating logs and profiles
//
// NewLogHandler wraps any slog.Handler so every record logged with a
// traced ctx carries trace_id/span_id attributes, and WithLabels installs
// runtime/pprof labels (stage, codec, chunk) so CPU profiles slice by
// pipeline stage. All three pillars — metrics exemplars, log records, and
// profile samples — share the same trace IDs.
package trace

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"lrm/internal/obs"
)

// Enabled reports whether trace recording is on.
func Enabled() bool { return obs.TracingEnabled() }

// SetEnabled turns trace recording on or off and returns the previous
// state. Traces retained while enabled persist until Reset.
func SetEnabled(on bool) (prev bool) { return obs.SetTracingEnabled(on) }

// maxSpansPerTrace bounds one trace's span list: a runaway loop starting
// spans under a single root cannot grow memory without bound. Excess spans
// are counted in Trace.Dropped rather than recorded.
const maxSpansPerTrace = 4096

// ID counters. Plain process-wide counters (no randomness) keep IDs unique,
// cheap, and stable for tests; trace IDs render as 16 hex digits.
var (
	traceIDs atomic.Uint64
	spanIDs  atomic.Uint64
)

// IDString renders a trace or span ID the way every exporter does: 16
// lower-case hex digits.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// SpanRecord is one finished span as it appears in a retained trace.
type SpanRecord struct {
	Name     string `json:"name"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"` // 0 for the root span
	Start    int64  `json:"start"`     // wall clock, Unix nanoseconds
	Dur      int64  `json:"dur"`       // nanoseconds
	BytesIn  int64  `json:"bytes_in,omitempty"`
	BytesOut int64  `json:"bytes_out,omitempty"`
	Items    int64  `json:"items,omitempty"`
	Err      string `json:"err,omitempty"`
}

// Trace is one completed span tree, snapshotted when its root span ended.
type Trace struct {
	ID      uint64       `json:"id"`
	Root    string       `json:"root"`  // root span name
	Start   int64        `json:"start"` // root start, Unix nanoseconds
	Dur     int64        `json:"dur"`   // root duration, nanoseconds
	Errs    int          `json:"errs"`  // spans that recorded an error
	Dropped int          `json:"dropped,omitempty"`
	Spans   []SpanRecord `json:"spans"`
}

// IDString returns the trace ID as 16 hex digits.
func (t *Trace) IDString() string { return IDString(t.ID) }

// traceData accumulates a trace's finished spans while it is in flight.
// Children may End concurrently on pool workers, so appends are locked.
type traceData struct {
	id   uint64
	done atomic.Bool // root ended; stragglers and new children are dropped

	mu      sync.Mutex
	spans   []SpanRecord
	errs    int
	dropped int
}

// Span is one in-flight traced stage execution. The zero of usefulness is
// nil: every method tolerates a nil receiver, which is what Start returns
// when both observability switches are off.
type Span struct {
	name     string
	start    time.Time
	td       *traceData // nil when tracing is off (metrics-only span)
	spanID   uint64
	parentID uint64
	metrics  bool

	bytesIn  int64
	bytesOut int64
	items    int64
	errMsg   string
}

// ctxKey keys the current span in a context.Context.
type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// NewContext returns ctx carrying sp. Start does this automatically;
// NewContext is for handing an existing span across an API boundary that
// only passes contexts.
func NewContext(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Start opens a span for the named stage. When tracing is enabled the span
// parents onto the span in ctx (a fresh trace is opened when there is
// none) and the returned context carries the new span, so nested stages —
// including tasks submitted to the worker pool with the returned ctx —
// attach under it. When only metrics are enabled the span records the
// stage bundle exactly like obs.Start. When both switches are off Start is
// one atomic load and returns (ctx, nil) untouched.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	st := obs.State()
	if st == 0 {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), metrics: st&obs.StateMetrics != 0}
	if st&obs.StateTracing != 0 {
		// A ctx whose trace already completed (its root ended) starts a
		// fresh trace rather than appending to a snapshotted tree.
		if parent := FromContext(ctx); parent != nil && parent.td != nil && !parent.td.done.Load() {
			sp.td = parent.td
			sp.parentID = parent.spanID
		} else {
			sp.td = &traceData{id: traceIDs.Add(1)}
		}
		sp.spanID = spanIDs.Add(1)
		ctx = context.WithValue(ctx, ctxKey{}, sp)
	}
	return ctx, sp
}

// Name returns the span's stage name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the span's trace ID as 16 hex digits, or "" when the
// span is nil or metrics-only.
func (s *Span) TraceID() string {
	if s == nil || s.td == nil {
		return ""
	}
	return IDString(s.td.id)
}

// SpanID returns the span's ID (0 when nil or metrics-only).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// SetBytes records the stage's input and output byte volumes.
func (s *Span) SetBytes(in, out int64) {
	if s == nil {
		return
	}
	s.bytesIn, s.bytesOut = in, out
}

// AddItems accumulates a stage-defined item count (points, blocks, chunks).
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.items += n
}

// SetError marks the span (and therefore its whole trace) as errored.
// Errored traces are always retained by the ring, regardless of latency.
// A nil err is a no-op.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// End finalizes the span: the stage metric bundle is fed when metrics are
// enabled (with the trace ID as the latency histogram's exemplar), and the
// span record is appended to its trace. Ending the root span completes the
// trace and offers it to the retention ring. Safe on a nil receiver; End
// must be called at most once.
func (s *Span) End() {
	if s == nil {
		return
	}
	ns := time.Since(s.start).Nanoseconds()
	if s.metrics {
		exemplar := ""
		if s.td != nil {
			exemplar = IDString(s.td.id)
		}
		obs.StageObserve(s.name, ns, s.bytesIn, s.bytesOut, s.items, exemplar)
	}
	td := s.td
	if td == nil {
		return
	}
	rec := SpanRecord{
		Name:     s.name,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Start:    s.start.UnixNano(),
		Dur:      ns,
		BytesIn:  s.bytesIn,
		BytesOut: s.bytesOut,
		Items:    s.items,
		Err:      s.errMsg,
	}
	var finished *Trace
	td.mu.Lock()
	if !td.done.Load() {
		if len(td.spans) < maxSpansPerTrace {
			td.spans = append(td.spans, rec)
		} else {
			td.dropped++
		}
		if s.errMsg != "" {
			td.errs++
		}
		if s.parentID == 0 {
			// Root ended: snapshot the trace. Stragglers that End after this
			// (a child outliving its root) are dropped — td is done.
			td.done.Store(true)
			finished = &Trace{
				ID:      td.id,
				Root:    s.name,
				Start:   rec.Start,
				Dur:     rec.Dur,
				Errs:    td.errs,
				Dropped: td.dropped,
				Spans:   td.spans,
			}
			td.spans = nil
		}
	}
	td.mu.Unlock()
	if finished != nil {
		offer(finished)
	}
}

// WithLabels installs runtime/pprof labels (key/value pairs such as
// "stage", "codec", "chunk") on the calling goroutine and returns a ctx
// carrying them plus a restore function to defer. Pool workers the calling
// goroutine then starts (parallel.For) inherit the labels, because Go
// copies a goroutine's labels into every goroutine it starts, so CPU
// profiles slice by pipeline stage.
// Disabled observability makes this a no-op returning ctx unchanged.
func WithLabels(ctx context.Context, kv ...string) (context.Context, func()) {
	if obs.State() == 0 {
		return ctx, func() {}
	}
	labeled := pprof.WithLabels(ctx, pprof.Labels(kv...))
	pprof.SetGoroutineLabels(labeled)
	return labeled, func() { pprof.SetGoroutineLabels(ctx) }
}
