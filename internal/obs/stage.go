package obs

import "sync"

// stageMetrics is one stage's metric bundle. Every recorded execution of a
// pipeline stage — a trace.Span ending, or an accumulated slice flushed
// through StageAdd — lands under the stage's name:
//
//	stage.<name>.ns        duration histogram (DefTimeBounds buckets)
//	stage.<name>.ns_total  accumulated wall time
//	stage.<name>.calls     completed execution count
//	stage.<name>.bytes_in  accumulated input bytes
//	stage.<name>.bytes_out accumulated output bytes
//	stage.<name>.items     accumulated item count (points, blocks, chunks)
//
// Bundles are cached per stage name so one record costs one sync.Map hit
// instead of six registry lookups.
type stageMetrics struct {
	ns       *Histogram
	nsTotal  *Counter
	calls    *Counter
	bytesIn  *Counter
	bytesOut *Counter
	items    *Counter
}

var stageCache sync.Map // name -> *stageMetrics

func stageFor(name string) *stageMetrics {
	if v, ok := stageCache.Load(name); ok {
		return v.(*stageMetrics)
	}
	st := &stageMetrics{
		ns:       GetHistogram("stage."+name+".ns", nil),
		nsTotal:  GetCounter("stage." + name + ".ns_total"),
		calls:    GetCounter("stage." + name + ".calls"),
		bytesIn:  GetCounter("stage." + name + ".bytes_in"),
		bytesOut: GetCounter("stage." + name + ".bytes_out"),
		items:    GetCounter("stage." + name + ".items"),
	}
	v, _ := stageCache.LoadOrStore(name, st)
	return v.(*stageMetrics)
}

// StageObserve records one stage execution with full attribution — the
// hook trace.Span.End feeds, in metrics-only and traced mode alike. A
// non-empty exemplar attaches a trace ID to the latency-histogram bucket
// the observation lands in.
func StageObserve(name string, ns, bytesIn, bytesOut, items int64, exemplar string) {
	st := stageFor(name)
	st.ns.ObserveExemplar(ns, exemplar)
	st.nsTotal.Add(ns)
	st.calls.Inc()
	if bytesIn != 0 || bytesOut != 0 {
		st.bytesIn.Add(bytesIn)
		st.bytesOut.Add(bytesOut)
	}
	if items != 0 {
		st.items.Add(items)
	}
}

// StageAdd records an externally timed slice of work against a stage — the
// accumulate-then-flush pattern for kernels too hot for a span per unit
// (e.g. ZFP's per-block align/transform/plane phases, which accumulate
// plain local nanosecond counters per shard and flush once at shard end).
// Unlike StageObserve it does not observe the latency histogram:
// accumulated slices are not call latencies.
func StageAdd(name string, ns, items int64) {
	st := stageFor(name)
	st.nsTotal.Add(ns)
	st.calls.Inc()
	if items != 0 {
		st.items.Add(items)
	}
}
