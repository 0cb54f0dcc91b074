package tsdb

import (
	"math"
	"runtime/metrics"
)

// The runtime/metrics bridge: the four signal groups the ISSUE's serving
// SLOs care about — heap size, GC pauses, scheduler latency, goroutine
// count — read through the sampling-safe runtime/metrics API (no
// stop-the-world, unlike runtime.ReadMemStats).
const (
	rmGoroutines   = "/sched/goroutines:goroutines"
	rmHeapBytes    = "/memory/classes/heap/objects:bytes"
	rmTotalAlloc   = "/gc/heap/allocs:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCPauses     = "/gc/pauses:seconds"
	rmSchedLatency = "/sched/latencies:seconds"
)

// runtimeSeries is one bridged sample ready for Store.record.
type runtimeSeries struct {
	name  string
	kind  Kind
	value float64
}

// runtimeSampler owns the reusable metrics.Sample slice and the previous
// histogram states needed for windowed pause/latency percentiles.
type runtimeSampler struct {
	samples   []metrics.Sample
	prevPause *metrics.Float64Histogram
	prevSched *metrics.Float64Histogram
}

func newRuntimeSampler() *runtimeSampler {
	names := []string{rmGoroutines, rmHeapBytes, rmTotalAlloc, rmGCCycles, rmGCPauses, rmSchedLatency}
	rs := &runtimeSampler{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		rs.samples[i].Name = n
	}
	return rs
}

// sample reads the runtime metrics and maps them onto store series:
//
//	runtime.goroutines           gauge    live goroutine count
//	runtime.heap_bytes           gauge    bytes of live heap objects
//	runtime.total_alloc_bytes    counter  cumulative heap allocation
//	runtime.gc_cycles            counter  completed GC cycles
//	runtime.gc_pause_p99_ns      gauge    p99 GC pause over the window
//	runtime.sched_latency_p99_ns gauge    p99 goroutine scheduling latency
//	                                      over the window
//
// The two p99 series are windowed: they reflect only the pauses/latencies
// recorded since the previous sampling pass, so a startup spike ages out
// of the history instead of pinning the percentile forever.
func (rs *runtimeSampler) sample() []runtimeSeries {
	metrics.Read(rs.samples)
	out := make([]runtimeSeries, 0, 6)
	for i := range rs.samples {
		sm := &rs.samples[i]
		switch sm.Name {
		case rmGoroutines:
			out = append(out, runtimeSeries{"runtime.goroutines", KindGauge, sampleFloat(sm)})
		case rmHeapBytes:
			out = append(out, runtimeSeries{"runtime.heap_bytes", KindGauge, sampleFloat(sm)})
		case rmTotalAlloc:
			out = append(out, runtimeSeries{"runtime.total_alloc_bytes", KindCounter, sampleFloat(sm)})
		case rmGCCycles:
			out = append(out, runtimeSeries{"runtime.gc_cycles", KindCounter, sampleFloat(sm)})
		case rmGCPauses:
			if sm.Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			cur := sm.Value.Float64Histogram()
			if p99, ok := windowedHistP99(rs.prevPause, cur); ok {
				out = append(out, runtimeSeries{"runtime.gc_pause_p99_ns", KindGauge, p99 * 1e9})
			}
			rs.prevPause = cloneHist(cur)
		case rmSchedLatency:
			if sm.Value.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			cur := sm.Value.Float64Histogram()
			if p99, ok := windowedHistP99(rs.prevSched, cur); ok {
				out = append(out, runtimeSeries{"runtime.sched_latency_p99_ns", KindGauge, p99 * 1e9})
			}
			rs.prevSched = cloneHist(cur)
		}
	}
	return out
}

func sampleFloat(sm *metrics.Sample) float64 {
	switch sm.Value.Kind() {
	case metrics.KindUint64:
		return float64(sm.Value.Uint64())
	case metrics.KindFloat64:
		return sm.Value.Float64()
	}
	return 0
}

// windowedHistP99 computes the 99th-percentile bucket bound of the
// observations cur gained over prev (nil prev means "since process
// start"). ok is false when the window holds no observations.
func windowedHistP99(prev, cur *metrics.Float64Histogram) (float64, bool) {
	if cur == nil || len(cur.Counts) == 0 {
		return 0, false
	}
	deltas := make([]uint64, len(cur.Counts))
	var total uint64
	for i, c := range cur.Counts {
		d := c
		if prev != nil && len(prev.Counts) == len(cur.Counts) && prev.Counts[i] <= c {
			d = c - prev.Counts[i]
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0, false
	}
	rank := uint64(0.99 * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, d := range deltas {
		cum += d
		if cum >= rank {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the upper
			// edge, clamping the +Inf tail to the last finite boundary.
			hi := cur.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = cur.Buckets[i]
			}
			return hi, true
		}
	}
	return cur.Buckets[len(cur.Buckets)-1], true
}

func cloneHist(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	if h == nil {
		return nil
	}
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
}
