package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	runtimepprof "runtime/pprof"
	"sync"
	"time"
)

// extraHandlers are debug endpoints registered by other packages (the
// obs/trace subpackage mounts /debug/traces here from its init). Handler
// cannot import those packages — they import obs — so registration is the
// seam that keeps the dependency edge pointing one way.
var (
	extraMu       sync.Mutex
	extraHandlers = map[string]http.Handler{}
)

// RegisterDebugHandler mounts h at pattern on every mux Handler returns
// from now on. Registering the same pattern twice keeps the latest handler.
func RegisterDebugHandler(pattern string, h http.Handler) {
	extraMu.Lock()
	defer extraMu.Unlock()
	extraHandlers[pattern] = h
}

// Handler returns the debug endpoint mux the commands mount behind their
// -debug-addr flag:
//
//	/metrics        Prometheus text exposition (WriteProm)
//	/debug/pprof    net/http/pprof profile index (cpu, heap, goroutine, ...)
//	/debug/traces   retained trace ring (when the obs/trace package is linked)
//	/debug/quality  sampled quality-check log (when obs/quality is linked)
//	/debug/history  telemetry history (when a tsdb.Store is mounted)
//
// The pprof handlers are mounted explicitly rather than via the package's
// DefaultServeMux side effect, so embedders control exactly what is served.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extraMu.Lock()
	for pattern, h := range extraHandlers {
		mux.Handle(pattern, h)
	}
	extraMu.Unlock()
	return mux
}

// StartDebug serves Handler on addr from a background goroutine and
// returns a stop function that drains and closes the server. Unlike the
// bare http.ListenAndServe it replaces, the server carries full lifecycle
// protection — a slow or stalled client cannot pin a connection (and with
// it a test's listener) forever:
//
//	ReadHeaderTimeout  5s     slowloris guard on every connection
//	ReadTimeout        1m     bounded request read (debug requests are tiny)
//	WriteTimeout       2m     bounded response write; generous because
//	                          /debug/pprof/profile streams for its full
//	                          ?seconds= window (30s default) before writing
//	IdleTimeout        2m     keep-alive connections are reaped
//	MaxHeaderBytes     1MiB   bounded header allocation
//
// The listener is bound synchronously, so a bad addr fails here rather
// than on a background goroutine, and addr ":0" works for tests (read the
// bound address back via the returned Addr). stop performs a graceful
// drain bounded by its ctx: in-flight requests finish, then the listener
// and idle connections close. Serve errors after a clean start surface on
// stderr — the debug plane must never kill the measurement run it
// observes.
func StartDebug(addr string) (boundAddr string, stop func(ctx context.Context) error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			os.Stderr.WriteString("obs: debug server: " + serr.Error() + "\n")
		}
	}()
	stop = func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		// Join the serve goroutine: when stop returns, the listener is
		// closed AND the accept loop has actually exited.
		<-done
		return err
	}
	return ln.Addr().String(), stop, nil
}

// StartCPUProfile begins a CPU profile into path. It returns a stop
// function to defer; a failure is reported via the returned error with a
// no-op stop. The runtime allows one CPU profile per process, so a start
// while another is running (another StartCPUProfile, or a
// /debug/pprof/profile capture) fails with the runtime's error, and the
// file just created for it is removed again.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return func() {}, err
	}
	if err := runtimepprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return func() {}, err
	}
	return func() {
		runtimepprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes the current heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return runtimepprof.WriteHeapProfile(f)
}
