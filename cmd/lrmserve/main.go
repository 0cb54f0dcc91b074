// Command lrmserve runs the LRM compression service: compress and
// decompress over HTTP, with admission control, per-tenant quotas, a
// CRC-keyed response cache, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	lrmserve [-addr :8080] [-workers N] [-max-inflight N] [-timeout 60s]
//	         [-max-body BYTES] [-quota-rps R] [-quota-burst N]
//	         [-cache-bytes BYTES] [-chunks N] [-drain-timeout 30s]
//	         [-history-interval 1s] [-history-samples 512]
//	         [-slo-availability 0.999] [-slo-p99 500ms]
//
// Endpoints:
//
//	POST /v1/compress?dims=64,64,64[&codec=zfp&precision=16&chunks=8]
//	POST /v1/decompress[?partial=1]
//	GET  /v1/codecs
//	GET  /healthz[?verbose=1]
//	GET  /metrics, /debug/pprof/..., /debug/traces, /debug/quality
//	GET  /debug/history[?name=...&match=...&since=5m&rate=1&n=100]
//
// CPU samples taken through /debug/pprof/profile carry the stage, codec
// and chunk pprof labels of the pipeline work they hit, so
// `go tool pprof -tagfocus stage=chunk_compress` narrows a capture to one
// layer and `-diff_base` compares two captures.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lrm/internal/obs"
	"lrm/internal/obs/slo"
	"lrm/internal/obs/trace"
	"lrm/internal/obs/tsdb"
	"lrm/internal/serve"
)

var logger = slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's testable body: it returns the exit code instead of calling
// os.Exit, and stops on the process signal context.
func run(args []string) int {
	fs := flag.NewFlagSet("lrmserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "parallel workers per request (0 = GOMAXPROCS)")
	maxInFlight := fs.Int("max-inflight", 0, "admitted requests executing at once (0 = 4 x GOMAXPROCS)")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes (0 = 256 MiB)")
	timeout := fs.Duration("timeout", 0, "per-request processing deadline (0 = 60s, negative = none)")
	quotaRPS := fs.Float64("quota-rps", 0, "per-tenant sustained requests/sec (0 = quotas off)")
	quotaBurst := fs.Int("quota-burst", 0, "per-tenant burst capacity (0 = 2 x quota-rps)")
	cacheBytes := fs.Int64("cache-bytes", 0, "decompressed-response cache budget (0 = 64 MiB, negative = off)")
	chunks := fs.Int("chunks", 0, "default container chunk count (0 = 8)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests at shutdown")
	histInterval := fs.Duration("history-interval", 0, "telemetry-history sampling period (0 = 1s)")
	histSamples := fs.Int("history-samples", 0, "samples retained per history series (0 = 512)")
	sloAvail := fs.Float64("slo-availability", 0, "availability objective in (0,1) (0 = 0.999)")
	sloP99 := fs.Duration("slo-p99", 0, "p99 latency objective (0 = 500ms)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The service is observable by construction: the obs registry and
	// tracer feed /metrics and /debug/traces on the same listener.
	obs.SetEnabled(true)
	trace.SetEnabled(true)

	// The history store must mount /debug/history before serve.New
	// snapshots the debug mux; sampling starts alongside the listener and
	// stops after the drain so the final samples cover shutdown.
	hist := tsdb.New(tsdb.Config{Interval: *histInterval, Capacity: *histSamples})
	hist.Mount()

	srv := serve.New(serve.Config{
		Workers:        *workers,
		MaxBodyBytes:   *maxBody,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		QuotaRPS:       *quotaRPS,
		QuotaBurst:     *quotaBurst,
		CacheBytes:     *cacheBytes,
		DefaultChunks:  *chunks,
		SLO:            slo.Objectives{Availability: *sloAvail, LatencyP99: *sloP99},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("lrmserve: listen", "addr", *addr, "err", err)
		return 1
	}
	logger.Info("lrmserve: serving", "addr", ln.Addr().String())
	hist.Start()

	// Drain on SIGTERM (orchestrator stop) and SIGINT (operator ^C): stop
	// the signal context, flip into draining, and give in-flight requests
	// the grace period before closing connections hard.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve failed before any signal: the listener broke.
		logger.Error("lrmserve: serve", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	logger.Info("lrmserve: draining", "grace", *drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := srv.Shutdown(sctx); err != nil {
		logger.Error("lrmserve: drain", "err", err)
		code = 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("lrmserve: serve", "err", err)
		code = 1
	}
	// Stop the sampler after the drain completes: its final pass records
	// the post-drain registry state, so the history ends with the truth
	// about how shutdown went.
	hist.Stop()
	logger.Info("lrmserve: stopped")
	return code
}
