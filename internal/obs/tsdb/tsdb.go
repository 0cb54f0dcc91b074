// Package tsdb is the telemetry-history layer on top of internal/obs: a
// fixed-memory ring-buffer time-series store that samples the obs registry
// (plus a runtime/metrics bridge — heap, GC pauses, scheduler latency,
// goroutine count) at a configurable interval and serves the history back
// as JSON range queries (/debug/history, query.go) and a self-contained
// HTML dashboard with inline sparklines (/debug/dash, dash.go).
//
// # Memory model
//
// Every series is a fixed-capacity ring of (timestamp, value) pairs; the
// store never grows past Config.MaxSeries rings of Config.Capacity samples,
// so the resident cost is bounded at construction time no matter how long
// the process runs or how many metrics register. Series beyond the cap are
// counted (DroppedSeries) and surfaced in query responses rather than
// silently ignored.
//
// # What gets sampled
//
// Counters and gauges record their raw values; rates for counters are
// derived at query time from consecutive samples (resets — obs.Reset or a
// counter rewind — clamp to a fresh start instead of a negative rate).
// Histograms contribute two derived series: <name>.count (cumulative
// observation count, counter kind) and <name>.p99 (the 99th-percentile
// bucket bound of the observations that arrived since the previous sample,
// gauge kind — a windowed quantile, not a since-birth one). The runtime
// bridge (runtime.go) adds the Go runtime series under the "runtime."
// prefix.
//
// The sampler is a background goroutine owned by whoever built the store
// (lrmserve's startup/drain, lrmexp's -history flag); nothing in
// this package touches the compression hot paths, so the disabled-overhead
// contract of internal/obs is unaffected by linking it.
package tsdb

import (
	"os"
	"sort"
	"sync"
	"time"

	"lrm/internal/obs"
)

// Kind classifies a series for query-time derivation: counter series can
// be converted to per-second rates, gauge series are reported as stored.
type Kind uint8

const (
	// KindGauge samples are instantaneous values.
	KindGauge Kind = iota
	// KindCounter samples are cumulative totals; rates derive from deltas.
	KindCounter
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Config tunes a Store. The zero value is production-usable.
type Config struct {
	// Interval is the sampling period of Start's background goroutine.
	// 0 means 1s.
	Interval time.Duration
	// Capacity is the number of samples each series ring retains.
	// 0 means 512 (~8.5 min of history at the default interval).
	Capacity int
	// MaxSeries bounds how many distinct series the store will track;
	// later registrations are counted as dropped. 0 means 1024.
	MaxSeries int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 1024
	}
	return c
}

// series is one fixed-capacity ring of samples.
type series struct {
	kind Kind
	t    []int64   // unix milliseconds, len == cap
	v    []float64 // len == cap
	head int       // next write position
	n    int       // filled samples, <= cap
}

func (s *series) push(tms int64, v float64) {
	s.t[s.head] = tms
	s.v[s.head] = v
	s.head = (s.head + 1) % len(s.t)
	if s.n < len(s.t) {
		s.n++
	}
}

// points appends the ring's samples in chronological order to dst.
func (s *series) points(dst [][2]float64) [][2]float64 {
	start := (s.head - s.n + len(s.t)) % len(s.t)
	for i := 0; i < s.n; i++ {
		j := (start + i) % len(s.t)
		dst = append(dst, [2]float64{float64(s.t[j]), s.v[j]})
	}
	return dst
}

// Store is the fixed-memory time-series store. Build with New, feed with
// Start (background sampler) or SampleOnce (manual, for tests and
// deterministic dumps), query with WriteJSON/WriteDash or the HTTP
// handlers, and stop with Stop.
type Store struct {
	cfg Config

	mu       sync.Mutex
	series   map[string]*series
	order    []string                    // insertion order, for stable exposition
	dropped  int64                       // series refused by the MaxSeries cap
	samples  int64                       // completed sampling passes
	prevHist map[string]obs.HistSnapshot // last bucket counts, for windowed p99

	rt *runtimeSampler

	lifecycle sync.Mutex
	stopc     chan struct{}
	done      chan struct{}
}

// New builds a Store. It performs no sampling until Start or SampleOnce.
func New(cfg Config) *Store {
	return &Store{
		cfg:      cfg.withDefaults(),
		series:   make(map[string]*series),
		prevHist: make(map[string]obs.HistSnapshot),
		rt:       newRuntimeSampler(),
	}
}

// Interval returns the configured sampling period.
func (s *Store) Interval() time.Duration { return s.cfg.Interval }

// Start launches the background sampler goroutine. Calling Start on an
// already-started store is a no-op; pair with Stop.
func (s *Store) Start() {
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	if s.stopc != nil {
		return
	}
	s.stopc = make(chan struct{})
	s.done = make(chan struct{})
	go func(stopc, done chan struct{}) {
		defer close(done)
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		// One immediate pass so short-lived processes still record history.
		s.SampleOnce(time.Now())
		for {
			select {
			case <-stopc:
				return
			case now := <-tick.C:
				s.SampleOnce(now)
			}
		}
	}(s.stopc, s.done)
}

// Stop halts the background sampler and takes one final sample so the
// history includes the state at shutdown (e.g. the tail of a drain).
// Safe to call without Start, and idempotent.
func (s *Store) Stop() {
	s.lifecycle.Lock()
	defer s.lifecycle.Unlock()
	if s.stopc == nil {
		return
	}
	close(s.stopc)
	<-s.done
	s.stopc, s.done = nil, nil
	s.SampleOnce(time.Now())
}

// SampleOnce performs one sampling pass at the given timestamp: the full
// obs registry snapshot plus the runtime bridge. It is safe to call
// concurrently with queries, with the background sampler, and with
// obs.Reset (a reset simply records the zeroed values; rate derivation
// treats the rewind as a counter reset).
func (s *Store) SampleOnce(now time.Time) {
	snap := obs.Snapshot()
	tms := now.UnixMilli()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range sortedNames(snap.Counters) {
		s.record(name, KindCounter, tms, float64(snap.Counters[name]))
	}
	for _, name := range sortedNames(snap.Gauges) {
		s.record(name, KindGauge, tms, float64(snap.Gauges[name]))
	}
	for _, name := range sortedNames(snap.Floats) {
		s.record(name, KindGauge, tms, snap.Floats[name])
	}
	for _, name := range sortedNames(snap.Histograms) {
		h := snap.Histograms[name]
		s.record(name+".count", KindCounter, tms, float64(h.Count))
		if p99, ok := s.windowP99(name, h); ok {
			s.record(name+".p99", KindGauge, tms, p99)
		}
	}
	for _, rs := range s.rt.sample() {
		s.record(rs.name, rs.kind, tms, rs.value)
	}
	s.samples++
}

// windowP99 estimates the 99th percentile of the observations a histogram
// received since the previous sampling pass, as the upper bound of the
// bucket containing the quantile. Returns ok == false when the window saw
// no observations (or the histogram shape changed under a Reset race).
// Caller holds s.mu.
func (s *Store) windowP99(name string, h obs.HistSnapshot) (float64, bool) {
	prev, had := s.prevHist[name]
	s.prevHist[name] = h
	if !had || len(prev.Counts) != len(h.Counts) {
		prev = obs.HistSnapshot{Counts: make([]int64, len(h.Counts))}
	}
	var total int64
	deltas := make([]int64, len(h.Counts))
	for i := range h.Counts {
		d := h.Counts[i] - prev.Counts[i]
		if d < 0 { // obs.Reset between passes: the window restarts at zero
			d = h.Counts[i]
		}
		deltas[i] = d
		total += d
	}
	if total == 0 {
		return 0, false
	}
	return bucketQuantile(h.Bounds, deltas, total, 0.99), true
}

// bucketQuantile returns the bucket upper bound at quantile q of counts
// over ascending bounds (the last bucket is +Inf and reports the last
// finite bound — the conventional conservative clamp).
func bucketQuantile(bounds []int64, counts []int64, total int64, q float64) float64 {
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

// record appends one sample, creating the series if the cap allows.
// Caller holds s.mu.
func (s *Store) record(name string, kind Kind, tms int64, v float64) {
	sr := s.series[name]
	if sr == nil {
		if len(s.series) >= s.cfg.MaxSeries {
			s.dropped++
			return
		}
		sr = &series{
			kind: kind,
			t:    make([]int64, s.cfg.Capacity),
			v:    make([]float64, s.cfg.Capacity),
		}
		s.series[name] = sr
		s.order = append(s.order, name)
	}
	sr.push(tms, v)
}

// DroppedSeries reports how many series registrations the MaxSeries cap
// refused.
func (s *Store) DroppedSeries() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Samples reports how many sampling passes have completed.
func (s *Store) Samples() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// SeriesSnap is one series' data in a query response.
type SeriesSnap struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Points are [unix_ms, value] pairs in chronological order. For
	// counter series queried with rate=1 the value is a per-second rate
	// over the preceding inter-sample gap.
	Points [][2]float64 `json:"points"`
}

// Mount registers the store's HTTP handlers on the obs debug mux:
// /debug/history (JSON range queries) and /debug/dash (HTML dashboard).
// Call before building muxes via obs.Handler (e.g. before serve.New).
func (s *Store) Mount() {
	obs.RegisterDebugHandler("/debug/history", s.HistoryHandler())
	obs.RegisterDebugHandler("/debug/dash", s.DashHandler())
}

// DumpFiles writes the retained history as JSON to historyPath and the
// rendered dashboard as HTML to dashPath — lrmexp's -history/-dash file
// dumps. Empty paths are skipped.
func (s *Store) DumpFiles(historyPath, dashPath string) error {
	if historyPath != "" {
		f, err := os.Create(historyPath)
		if err != nil {
			return err
		}
		err = s.WriteJSON(f, Query{})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if dashPath != "" {
		f, err := os.Create(dashPath)
		if err != nil {
			return err
		}
		err = s.WriteDash(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
