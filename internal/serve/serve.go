// Package serve implements lrmserve's HTTP surface: compress/decompress as
// a long-running API over the chunked container pipeline, with the
// production lifecycle the library alone does not provide —
//
//   - admission control: a fixed-capacity semaphore in front of the
//     pipeline endpoints; when every slot is busy the server answers
//     429 + Retry-After instead of queueing unboundedly on top of the
//     already-bounded internal/parallel pool;
//   - per-tenant quotas: a token bucket per API key (quota.go), refilled
//     at a configured rate, so one chatty client cannot starve the rest;
//   - response caching: decompressed fields are cached in a bounded LRU
//     keyed by the container's index-seeded chunk CRCs (core.ChunkCRCs) —
//     a content address that costs a framing scan, not a decode;
//   - graceful drain: Shutdown flips the server into draining (healthz
//     and the API answer 503), stops accepting, lets in-flight requests
//     finish, then closes;
//   - cancellation: every request's context threads into
//     core.CompressChunked / core.Decompress, so a client disconnect or
//     deadline stops chunk processing at the next chunk boundary instead
//     of burning CPU on an abandoned request.
//
// The obs debug mux (/metrics, /debug/pprof, /debug/traces, and the
// handlers registered with obs.RegisterDebugHandler) is mounted on the
// same server, and every endpoint carries request counters, in-flight
// gauges, and latency histograms in the obs registry, so the service is
// observable from its first request. Only the standard library is used.
package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/slo"
)

// Config tunes the server. The zero value serves with production defaults.
type Config struct {
	// Workers is the internal/parallel budget each request's pipeline runs
	// with. 0 means GOMAXPROCS — note that budget is per admitted request;
	// MaxInFlight bounds how many such pipelines run at once.
	Workers int
	// MaxBodyBytes caps request bodies (compress input and archives alike).
	// Oversized bodies are refused with 413. 0 means 256 MiB.
	MaxBodyBytes int64
	// MaxInFlight is the admission-control capacity: the number of
	// compress/decompress requests allowed past the semaphore at once.
	// Requests beyond it get 429 + Retry-After. 0 means 4 x GOMAXPROCS.
	MaxInFlight int
	// RequestTimeout bounds each admitted request's pipeline work; the
	// deadline propagates into the chunk loops, which abort at the next
	// chunk boundary. 0 means 60s; negative disables the deadline.
	RequestTimeout time.Duration
	// QuotaRPS is the per-tenant sustained request rate (tenant = API key,
	// see tenantKey). 0 disables quotas.
	QuotaRPS float64
	// QuotaBurst is the token-bucket capacity. 0 derives max(1, 2*QuotaRPS).
	QuotaBurst int
	// CacheBytes bounds the decompressed-response cache. 0 means 64 MiB;
	// negative disables caching.
	CacheBytes int64
	// DefaultChunks is the container chunk count used when a compress
	// request does not pass ?chunks=. 0 means 8 (clamped to the leading
	// extent).
	DefaultChunks int
	// SLO sets the service-level objectives the built-in tracker evaluates
	// (availability + p99 latency, multi-window burn rates). Zero-value
	// fields take slo.DefaultObjectives.
	SLO slo.Objectives
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = max(1, int(2*c.QuotaRPS))
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultChunks <= 0 {
		c.DefaultChunks = 8
	}
	return c
}

// Endpoint metric bundles, hoisted per the obs contract. Names follow the
// serve.<endpoint>.<field> scheme so /metrics groups them.
type epMetrics struct {
	requests *obs.Counter   // every request that reached the endpoint
	inflight *obs.Gauge     // admitted requests currently executing
	latency  *obs.Histogram // admitted-request wall time, ns
	s4xx     *obs.Counter   // responses with a 4xx status
	s5xx     *obs.Counter   // responses with a 5xx status
	canceled *obs.Counter   // requests abandoned by the client mid-flight
	bytesIn  *obs.Counter   // request body bytes accepted
	bytesOut *obs.Counter   // response body bytes written
}

func newEpMetrics(name string) *epMetrics {
	p := "serve." + name
	return &epMetrics{
		requests: obs.GetCounter(p + ".requests"),
		inflight: obs.GetGauge(p + ".inflight"),
		latency:  obs.GetHistogram(p+".ns", nil),
		s4xx:     obs.GetCounter(p + ".status_4xx"),
		s5xx:     obs.GetCounter(p + ".status_5xx"),
		canceled: obs.GetCounter(p + ".canceled"),
		bytesIn:  obs.GetCounter(p + ".bytes_in"),
		bytesOut: obs.GetCounter(p + ".bytes_out"),
	}
}

// Shared rejection counters: one per refusal reason, so saturation,
// throttling, and drain are distinguishable on /metrics. serve.requests is
// the cross-endpoint aggregate the SLO tracker and telemetry history key
// on.
var (
	obsRequests     = obs.GetCounter("serve.requests")
	obsRejAdmission = obs.GetCounter("serve.rejected.admission")
	obsRejQuota     = obs.GetCounter("serve.rejected.quota")
	obsRejDraining  = obs.GetCounter("serve.rejected.draining")
)

func init() {
	obs.Describe("serve.requests", "API requests across all endpoints, admitted or not.")
	obs.Describe("serve.rejected.admission", "Requests refused by the in-flight semaphore (429).")
	obs.Describe("serve.rejected.quota", "Requests refused by the per-tenant token bucket (429).")
	obs.Describe("serve.rejected.draining", "Requests refused during graceful drain (503).")
}

// Server is the lrmserve HTTP service. Create with New, run with Serve (or
// mount Handler under a test server), stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	http     *http.Server
	sem      chan struct{}
	quota    *quotas
	cache    *respCache
	draining atomic.Bool
	slo      *slo.Tracker

	epCompress   *epMetrics
	epDecompress *epMetrics
}

// New builds a Server from cfg (zero-value fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		sem:          make(chan struct{}, cfg.MaxInFlight),
		slo:          slo.New(cfg.SLO),
		epCompress:   newEpMetrics("compress"),
		epDecompress: newEpMetrics("decompress"),
	}
	if cfg.QuotaRPS > 0 {
		s.quota = newQuotas(cfg.QuotaRPS, float64(cfg.QuotaBurst))
	}
	if cfg.CacheBytes > 0 {
		s.cache = newRespCache(cfg.CacheBytes)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/codecs", handleCodecs)
	s.mux.Handle("/v1/compress", s.guard(s.epCompress, s.handleCompress))
	s.mux.Handle("/v1/decompress", s.guard(s.epDecompress, s.handleDecompress))
	// Everything else — /metrics, /debug/pprof, /debug/traces, the
	// registered /debug handlers, and the 404 for unknown paths — is the
	// obs debug mux, mounted on the same server so the service is
	// observable on day one.
	s.mux.Handle("/", obs.Handler())
	s.http = &http.Server{
		Handler: s.mux,
		// Bodies stream under MaxBytesReader and the request deadline, so
		// only the header read, response write, and idle keep-alives carry
		// absolute timeouts here; ReadTimeout is a wide backstop against a
		// client trickling a body forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	return s
}

// Handler exposes the full route table (API + debug) for tests and
// embedders.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts on ln until Shutdown. It returns http.ErrServerClosed
// after a clean drain, any other error on accept failure.
func (s *Server) Serve(ln net.Listener) error { return s.http.Serve(ln) }

// Shutdown drains the server gracefully, in order: (1) flip into draining
// so every new API request — including ones arriving on kept-alive
// connections the listener close cannot refuse — answers 503; (2)
// http.Server.Shutdown closes the listener and waits for in-flight
// requests to finish; (3) when ctx expires first, remaining connections
// are closed hard and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.http.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// draining so traffic shifts away before the listener closes. With
// ?verbose=1 the body is JSON carrying the SLO report — availability and
// latency burn rates over the 5m and 1h windows — so a human (or a probe
// that alerts on burn) reads service health and error-budget spend from
// one endpoint.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
		w.Header().Set("Retry-After", "1")
	}
	if !boolParam(r, "verbose") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(state + "\n"))
		return
	}
	doc := struct {
		Status string     `json:"status"`
		SLO    slo.Report `json:"slo"`
	}{Status: state, SLO: s.slo.Report(time.Now())}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(doc)
}

// guard wraps an API endpoint with the full admission path, in rejection
// order: drain check, per-tenant quota, then the in-flight semaphore. Each
// rejection is cheap, counted, and carries Retry-After; only admitted
// requests pay for body reads and pipeline work. The wrapper also records
// the endpoint's request counter, in-flight gauge, latency histogram, and
// status-class counters, plus the cross-endpoint aggregate and the SLO
// tracker — every outcome, rejections included, routes through the
// statusWriter so the SLO windows see exactly what clients saw.
func (s *Server) guard(ep *epMetrics, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Inc()
		obsRequests.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		defer func() { s.slo.Record(sw.status, time.Since(t0)) }()
		if r.Method != http.MethodPost {
			ep.s4xx.Inc()
			sw.Header().Set("Allow", http.MethodPost)
			http.Error(sw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if s.draining.Load() {
			obsRejDraining.Inc()
			ep.s5xx.Inc()
			sw.Header().Set("Retry-After", "1")
			http.Error(sw, "draining", http.StatusServiceUnavailable)
			return
		}
		if s.quota != nil {
			if ok, retry := s.quota.allow(tenantKey(r), time.Now()); !ok {
				obsRejQuota.Inc()
				ep.s4xx.Inc()
				sw.Header().Set("Retry-After", retryAfterSeconds(retry))
				http.Error(sw, "tenant quota exceeded", http.StatusTooManyRequests)
				return
			}
		}
		select {
		case s.sem <- struct{}{}:
		default:
			obsRejAdmission.Inc()
			ep.s4xx.Inc()
			sw.Header().Set("Retry-After", "1")
			http.Error(sw, "server saturated", http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.sem }()

		ep.inflight.Add(1)
		defer ep.inflight.Add(-1)
		h(sw, r)
		ep.latency.Observe(time.Since(t0).Nanoseconds())
		ep.bytesOut.Add(sw.written)
		switch {
		case sw.status >= 500:
			ep.s5xx.Inc()
		case sw.status >= 400:
			ep.s4xx.Inc()
		}
	})
}

// tenantKey identifies the quota bucket for a request: the X-API-Key
// header, else a Bearer token, else the shared anonymous bucket.
func tenantKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
		return auth[7:]
	}
	return "anonymous"
}

// retryAfterSeconds renders a Retry-After value, rounding up so a client
// that honors it lands after the bucket refills, never just before.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// statusWriter records the response status and body size for the endpoint
// metrics, passing Flush through so handlers can stream.
type statusWriter struct {
	http.ResponseWriter
	status  int
	written int64
	wrote   bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.written += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
