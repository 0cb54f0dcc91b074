// Package obs is the repository's zero-dependency observability core: a
// metrics registry (atomic counters, gauges, and fixed-bucket histograms
// with Snapshot/Reset), the per-stage metric bundles that pipeline spans
// feed (stage.go), and Prometheus text exposition (expo.go, http.go). Only
// the standard library is used.
// Stages are recorded through the trace subpackage: trace.Start is the one
// span constructor, and with tracing off it records only the stage bundle.
//
// # The no-op fast path
//
// Observability is off by default. Every instrumentation entry point is
// gated on a single atomic load:
//
//	ctx, sp := trace.Start(ctx, "sz.quantize") // one atomic load; (ctx, nil) when off
//	defer sp.End()                             // nil receiver: no-op
//
// Span methods are nil-receiver-safe, so instrumented code pays exactly one
// atomic load per Start call (and per obs.Enabled() guard) when
// observability is disabled — no allocation, no time.Now, no registry
// traffic. Hot loops must hoist the guard: instrument at stage granularity
// (one span around a kernel), or snapshot Enabled() into a local once per
// shard and accumulate into plain locals, flushing through StageAdd at the
// end. The overhead guards (overhead_test.go for the guarded obs probes,
// trace/overhead_test.go for those plus the trace lifecycles) pin the
// disabled cost of the instrumented compression paths below 2% of stage
// runtime.
//
// # Registry model
//
// Metrics are registered lazily by name and live for the process lifetime:
// GetCounter("sz.bin_hits") returns the same *Counter on every call, so
// packages hoist metric pointers into package-level vars and never pay a
// map lookup on the hot path. Reset zeroes every value in place without
// invalidating those pointers. Snapshot returns a consistent-enough copy
// for reporting (values are read atomically; cross-metric skew is
// acceptable for monitoring).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// State bits of the process-wide observability switch. Metrics recording
// (StateMetrics) and trace recording (StateTracing, driven by the obs/trace
// subpackage) share one atomic word so a fully instrumented call site —
// stage metrics plus hierarchical tracing — still pays exactly one atomic
// load when both are off.
const (
	StateMetrics uint32 = 1 << iota
	StateTracing
)

// state is the packed observability switch. Disabled instrumented code
// performs exactly one atomic load per guard.
var state atomic.Uint32

// State returns the packed enable bits (StateMetrics | StateTracing) in one
// atomic load — the fast-path guard shared with the trace subpackage.
func State() uint32 { return state.Load() }

// Enabled reports whether metric recording is on.
func Enabled() bool { return state.Load()&StateMetrics != 0 }

// SetEnabled turns metric recording on or off and returns the previous
// state. Metrics recorded while enabled persist until Reset.
func SetEnabled(on bool) (prev bool) { return setStateBit(StateMetrics, on) }

// TracingEnabled reports whether trace recording is on.
func TracingEnabled() bool { return state.Load()&StateTracing != 0 }

// SetTracingEnabled turns trace recording on or off and returns the
// previous state. The obs/trace subpackage wraps this; it lives here so the
// two switches share one atomic word.
func SetTracingEnabled(on bool) (prev bool) { return setStateBit(StateTracing, on) }

func setStateBit(bit uint32, on bool) (prev bool) {
	for {
		cur := state.Load()
		next := cur &^ bit
		if on {
			next = cur | bit
		}
		if state.CompareAndSwap(cur, next) {
			return cur&bit != 0
		}
	}
}

// Counter is a monotonically increasing (or at least additive) int64 metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-or-adjust int64 metric (queue depth, rank, high-water).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value — the
// high-water-mark operation (e.g. the largest decode allocation granted).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64 gauge (delta energy, captured variance). The
// value is stored as IEEE bits in a uint64 so reads and writes stay atomic.
type FloatGauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the registered metric name.
func (g *FloatGauge) Name() string { return g.name }

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: Bounds holds ascending inclusive
// upper bounds; observations above the last bound land in an implicit +Inf
// bucket. Counts, sum, and count are all atomic, so Observe is safe from
// any goroutine. Each bucket additionally keeps the most recent exemplar
// (a trace ID plus the observed value) when one is supplied, so a fat
// latency bucket links to a concrete trace in the ring buffer.
type Histogram struct {
	name      string
	bounds    []int64
	counts    []atomic.Int64             // len(bounds)+1; last is +Inf
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1; last-write-wins
	sum       atomic.Int64
	count     atomic.Int64
}

// Exemplar links one histogram bucket to a concrete trace: the trace ID of
// a span whose observation landed in the bucket, and the observed value.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveN records value v n times: the flush of a tally kept locally by
// a loop too hot to Observe per item.
func (h *Histogram) ObserveN(v, n int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
}

// ObserveExemplar records one value and attaches traceID as the bucket's
// exemplar (last write wins). An empty traceID degrades to Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // per-bucket (NOT cumulative); last is +Inf
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
	// Exemplars holds one entry per bucket (aligned with Counts); buckets
	// that never saw an exemplar are nil.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// BucketQuantile returns the bucket upper bound at quantile q of per-bucket
// counts (len(bounds)+1 entries, the last being +Inf) whose sum is total.
// A quantile landing in the +Inf bucket reports the last finite bound — the
// conventional conservative clamp — and empty bounds report 0.
func BucketQuantile(bounds, counts []int64, total int64, q float64) float64 {
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return float64(bounds[i])
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return float64(bounds[len(bounds)-1])
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]*Exemplar, len(h.exemplars))
			}
			s.Exemplars[i] = e
		}
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
	h.sum.Store(0)
	h.count.Store(0)
}

// DefTimeBounds are the default duration-histogram bucket bounds in
// nanoseconds: powers of four from 1 µs to ~4.4 min, a range wide enough
// for a single plane-coder call and a full large-field chunked compress.
var DefTimeBounds = timeBounds()

func timeBounds() []int64 {
	b := make([]int64, 13)
	v := int64(1000) // 1 µs
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}

// registry is the process-wide metric store. Lookups are lock-protected;
// hot paths hoist metric pointers, so the lock is never on a kernel path.
type registry struct {
	mu     sync.RWMutex
	order  []string // registration order of all names, for stable exposition
	counts map[string]*Counter
	gauges map[string]*Gauge
	floats map[string]*FloatGauge
	hists  map[string]*Histogram
}

var reg = &registry{
	counts: map[string]*Counter{},
	gauges: map[string]*Gauge{},
	floats: map[string]*FloatGauge{},
	hists:  map[string]*Histogram{},
}

// GetCounter returns the counter registered under name, creating it on
// first use. The returned pointer is stable for the process lifetime.
func GetCounter(name string) *Counter {
	reg.mu.RLock()
	c := reg.counts[name]
	reg.mu.RUnlock()
	if c != nil {
		return c
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if c = reg.counts[name]; c == nil {
		c = &Counter{name: name}
		reg.counts[name] = c
		reg.order = append(reg.order, name)
	}
	return c
}

// GetGauge returns the gauge registered under name, creating it on first
// use.
func GetGauge(name string) *Gauge {
	reg.mu.RLock()
	g := reg.gauges[name]
	reg.mu.RUnlock()
	if g != nil {
		return g
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g = reg.gauges[name]; g == nil {
		g = &Gauge{name: name}
		reg.gauges[name] = g
		reg.order = append(reg.order, name)
	}
	return g
}

// GetFloatGauge returns the float gauge registered under name, creating it
// on first use.
func GetFloatGauge(name string) *FloatGauge {
	reg.mu.RLock()
	g := reg.floats[name]
	reg.mu.RUnlock()
	if g != nil {
		return g
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if g = reg.floats[name]; g == nil {
		g = &FloatGauge{name: name}
		reg.floats[name] = g
		reg.order = append(reg.order, name)
	}
	return g
}

// GetHistogram returns the histogram registered under name, creating it
// with the given ascending bucket bounds on first use (later calls ignore
// bounds). A nil bounds slice uses DefTimeBounds.
func GetHistogram(name string, bounds []int64) *Histogram {
	reg.mu.RLock()
	h := reg.hists[name]
	reg.mu.RUnlock()
	if h != nil {
		return h
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if h = reg.hists[name]; h == nil {
		if bounds == nil {
			bounds = DefTimeBounds
		}
		h = &Histogram{
			name:      name,
			bounds:    bounds,
			counts:    make([]atomic.Int64, len(bounds)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
		}
		reg.hists[name] = h
		reg.order = append(reg.order, name)
	}
	return h
}

// Snap is a point-in-time copy of every registered metric.
type Snap struct {
	Enabled    bool                    `json:"enabled"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Floats     map[string]float64      `json:"floats,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Each value is read atomically; the snapshot
// as a whole is not transactionally consistent across metrics, which is the
// usual monitoring contract.
func Snapshot() *Snap {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	s := &Snap{
		Enabled:    Enabled(),
		Counters:   make(map[string]int64, len(reg.counts)),
		Gauges:     make(map[string]int64, len(reg.gauges)),
		Floats:     make(map[string]float64, len(reg.floats)),
		Histograms: make(map[string]HistSnapshot, len(reg.hists)),
	}
	for n, c := range reg.counts {
		s.Counters[n] = c.Value()
	}
	for n, g := range reg.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, g := range reg.floats {
		s.Floats[n] = g.Value()
	}
	for n, h := range reg.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Reset zeroes every registered metric in place. Registrations (and any
// hoisted metric pointers) remain valid.
func Reset() {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	for _, c := range reg.counts {
		c.v.Store(0)
	}
	for _, g := range reg.gauges {
		g.v.Store(0)
	}
	for _, g := range reg.floats {
		g.bits.Store(0)
	}
	for _, h := range reg.hists {
		h.reset()
	}
}

// names returns every registered metric name in registration order.
func names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return append([]string(nil), reg.order...)
}
