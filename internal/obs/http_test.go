package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	runtimepprof "runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestStartDebugServesAndStops covers the lifecycle seam end to end: the
// server binds synchronously, serves /metrics and /debug/pprof, and the stop
// function drains it so the port is immediately reusable — the leak the old
// bare http.ListenAndServe made impossible to avoid.
func TestStartDebugServesAndStops(t *testing.T) {
	addr, stop, err := StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartDebug: %v", err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	// Register one metric so the exposition is non-empty regardless of
	// which other packages this test binary links; the exposition
	// content-type is the contract here.
	GetCounter("test.debug.served")
	if body := get("/metrics"); body == "" {
		t.Error("/metrics returned an empty exposition")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index lists no goroutine profile: %q", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}

	// The listener must actually be released: re-binding the exact address
	// succeeds only when stop closed it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("address %s still bound after stop: %v", addr, err)
	}
	ln.Close()
}

// TestStartDebugBadAddrFailsFast pins the synchronous-bind contract: an
// unusable address errors from StartDebug itself, not on a background
// goroutine after the caller has moved on.
func TestStartDebugBadAddrFailsFast(t *testing.T) {
	if _, _, err := StartDebug("256.256.256.256:99999"); err == nil {
		t.Fatal("StartDebug on a bogus address returned no error")
	}
}

// TestStartCPUProfileArbitrated: the runtime allows one CPU profile per
// process, so StartCPUProfile returns its refusal while another profile
// runs, leaves no file behind, and starts once that profile stops.
func TestStartCPUProfileArbitrated(t *testing.T) {
	if err := runtimepprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("holding the runtime profiler: %v", err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := StartCPUProfile(path); err == nil {
		runtimepprof.StopCPUProfile()
		t.Fatal("StartCPUProfile succeeded while another CPU profile ran")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		runtimepprof.StopCPUProfile()
		t.Fatalf("refused profile left a file: %v", err)
	}
	runtimepprof.StopCPUProfile()

	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatalf("StartCPUProfile after the other profile stopped: %v", err)
	}
	stop()
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile file missing or empty: %v %v", fi, err)
	}
}
