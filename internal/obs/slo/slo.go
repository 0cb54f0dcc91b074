// Package slo implements rolling-window RED/SLO tracking for the serving
// path: every request outcome (status class + latency) lands in a
// fixed-memory ring of one-second buckets, and availability and p99-latency
// objectives are evaluated over multiple windows (5m and 1h) as error-budget
// burn rates — the multi-window construction from the SRE workbook, where a
// fast window catches a sharp regression minutes in and the slow window
// catches a slow leak before the monthly budget is gone.
//
// Burn rate is (bad fraction over the window) / (1 - objective): 1.0 means
// the service is spending its error budget exactly as fast as the objective
// allows; above ~14 on the 5m window is the classic page-now threshold.
//
// The tracker publishes its state three ways, all fed from the same ring:
//
//   - obs registry gauges (slo.availability.burn_5m, slo.latency.burn_1h,
//     ...) refreshed at most once per second on the Record path, so
//     /metrics and the tsdb history sample them like any other metric;
//   - cumulative counters (slo.requests, slo.errors, slo.slow) for plain
//     rate arithmetic in external systems;
//   - Report, the structured JSON form lrmserve's /healthz?verbose=1
//     returns for humans and probes.
package slo

import (
	"sync"
	"time"

	"lrm/internal/obs"
)

// windowSeconds is the ring extent: one hour of one-second buckets, enough
// for the longest reported window.
const windowSeconds = 3600

// Objectives are the service-level objectives a Tracker evaluates.
type Objectives struct {
	// Availability is the target fraction of non-5xx responses, e.g.
	// 0.999. Must be in (0, 1).
	Availability float64
	// LatencyP99 is the latency objective: at most 1% of requests may
	// take longer than this.
	LatencyP99 time.Duration
}

// DefaultObjectives matches the serving smoke gate: three nines of
// availability and a p99 under 500ms on the loopback path.
func DefaultObjectives() Objectives {
	return Objectives{Availability: 0.999, LatencyP99: 500 * time.Millisecond}
}

// bucket is one second of outcomes. lat counts latencies against
// obs.DefTimeBounds so windowed percentiles are recoverable.
type bucket struct {
	sec   int64 // unix second this bucket currently holds; 0 = empty
	total int64
	errs  int64 // 5xx responses
	slow  int64 // responses over the latency objective (any status)
	lat   []int64
}

// Tracker is the rolling-window SLO evaluator. Create with New; Record is
// safe for concurrent use.
type Tracker struct {
	obj    Objectives
	bounds []int64 // latency histogram bounds (ns), obs.DefTimeBounds

	mu      sync.Mutex
	buckets []bucket
	lastPub int64 // unix second of the last gauge publish

	// Cumulative counters, hoisted per the obs contract.
	cRequests *obs.Counter
	cErrors   *obs.Counter
	cSlow     *obs.Counter
	// Published burn-rate gauges, one per (dimension, window).
	gAvailBurn5m  *obs.FloatGauge
	gAvailBurn1h  *obs.FloatGauge
	gLatBurn5m    *obs.FloatGauge
	gLatBurn1h    *obs.FloatGauge
	gLatP99Ms5m   *obs.FloatGauge
	gAvailability *obs.FloatGauge
}

// New builds a Tracker for the given objectives (zero-value fields take
// DefaultObjectives') and registers its metrics so they appear on /metrics
// from process start, not first failure.
func New(obj Objectives) *Tracker {
	def := DefaultObjectives()
	if obj.Availability <= 0 || obj.Availability >= 1 {
		obj.Availability = def.Availability
	}
	if obj.LatencyP99 <= 0 {
		obj.LatencyP99 = def.LatencyP99
	}
	t := &Tracker{
		obj:           obj,
		bounds:        obs.DefTimeBounds,
		buckets:       make([]bucket, windowSeconds),
		cRequests:     obs.GetCounter("slo.requests"),
		cErrors:       obs.GetCounter("slo.errors"),
		cSlow:         obs.GetCounter("slo.slow"),
		gAvailBurn5m:  obs.GetFloatGauge("slo.availability.burn_5m"),
		gAvailBurn1h:  obs.GetFloatGauge("slo.availability.burn_1h"),
		gLatBurn5m:    obs.GetFloatGauge("slo.latency.burn_5m"),
		gLatBurn1h:    obs.GetFloatGauge("slo.latency.burn_1h"),
		gLatP99Ms5m:   obs.GetFloatGauge("slo.latency.p99_5m_ms"),
		gAvailability: obs.GetFloatGauge("slo.availability.ratio_5m"),
	}
	for i := range t.buckets {
		t.buckets[i].lat = make([]int64, len(t.bounds)+1)
	}
	return t
}

// Objectives returns the tracker's (defaulted) objectives.
func (t *Tracker) Objectives() Objectives { return t.obj }

// Record logs one request outcome. status is the HTTP status sent; latency
// is the wall time the caller measured. Gauges republish at most once per
// second, so the per-request cost beyond the ring update is two window
// scans per second of traffic, not per request.
func (t *Tracker) Record(status int, latency time.Duration) {
	t.RecordAt(time.Now(), status, latency)
}

// RecordAt is Record with an injectable clock for tests.
func (t *Tracker) RecordAt(now time.Time, status int, latency time.Duration) {
	isErr := status >= 500
	isSlow := latency > t.obj.LatencyP99

	t.cRequests.Inc()
	if isErr {
		t.cErrors.Inc()
	}
	if isSlow {
		t.cSlow.Inc()
	}

	sec := now.Unix()
	ns := latency.Nanoseconds()
	t.mu.Lock()
	b := &t.buckets[sec%windowSeconds]
	if b.sec != sec {
		b.sec, b.total, b.errs, b.slow = sec, 0, 0, 0
		for i := range b.lat {
			b.lat[i] = 0
		}
	}
	b.total++
	if isErr {
		b.errs++
	}
	if isSlow {
		b.slow++
	}
	b.lat[latBucket(t.bounds, ns)]++
	publish := sec != t.lastPub
	if publish {
		t.lastPub = sec
	}
	var rep Report
	if publish {
		rep = t.reportLocked(now)
	}
	t.mu.Unlock()

	if publish {
		t.publish(rep)
	}
}

func latBucket(bounds []int64, ns int64) int {
	for i, b := range bounds {
		if ns <= b {
			return i
		}
	}
	return len(bounds)
}

// WindowStats is one window's evaluation in a Report.
type WindowStats struct {
	Window           string  `json:"window"`
	Requests         int64   `json:"requests"`
	Errors           int64   `json:"errors"`
	Slow             int64   `json:"slow"`
	Availability     float64 `json:"availability"`
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`
	P99Ms            float64 `json:"p99_ms"`
}

// Report is the structured SLO state /healthz?verbose=1 returns.
type Report struct {
	AvailabilityObjective float64       `json:"availability_objective"`
	LatencyObjectiveMs    float64       `json:"latency_objective_ms"`
	Windows               []WindowStats `json:"windows"`
}

// Report evaluates the 5m and 1h windows at now.
func (t *Tracker) Report(now time.Time) Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reportLocked(now)
}

func (t *Tracker) reportLocked(now time.Time) Report {
	rep := Report{
		AvailabilityObjective: t.obj.Availability,
		LatencyObjectiveMs:    float64(t.obj.LatencyP99) / float64(time.Millisecond),
	}
	for _, w := range []struct {
		name string
		dur  time.Duration
	}{{"5m", 5 * time.Minute}, {"1h", time.Hour}} {
		rep.Windows = append(rep.Windows, t.windowLocked(now, w.name, w.dur))
	}
	return rep
}

func (t *Tracker) windowLocked(now time.Time, name string, dur time.Duration) WindowStats {
	lo := now.Unix() - int64(dur/time.Second) + 1
	ws := WindowStats{Window: name, Availability: 1, P99Ms: 0}
	lat := make([]int64, len(t.bounds)+1)
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.sec < lo || b.sec == 0 || b.sec > now.Unix() {
			continue
		}
		ws.Requests += b.total
		ws.Errors += b.errs
		ws.Slow += b.slow
		for j, c := range b.lat {
			lat[j] += c
		}
	}
	if ws.Requests == 0 {
		return ws
	}
	errFrac := float64(ws.Errors) / float64(ws.Requests)
	slowFrac := float64(ws.Slow) / float64(ws.Requests)
	ws.Availability = 1 - errFrac
	ws.AvailabilityBurn = errFrac / (1 - t.obj.Availability)
	// The latency objective budgets 1% of requests over the threshold.
	ws.LatencyBurn = slowFrac / 0.01
	ws.P99Ms = obs.BucketQuantile(t.bounds, lat, ws.Requests, 0.99) / 1e6
	return ws
}

// publish pushes the report's burn rates into the obs gauges.
func (t *Tracker) publish(rep Report) {
	for _, w := range rep.Windows {
		switch w.Window {
		case "5m":
			t.gAvailBurn5m.Set(w.AvailabilityBurn)
			t.gLatBurn5m.Set(w.LatencyBurn)
			t.gLatP99Ms5m.Set(w.P99Ms)
			t.gAvailability.Set(w.Availability)
		case "1h":
			t.gAvailBurn1h.Set(w.AvailabilityBurn)
			t.gLatBurn1h.Set(w.LatencyBurn)
		}
	}
}
