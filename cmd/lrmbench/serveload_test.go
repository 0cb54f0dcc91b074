package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote; serveLoadMain prints its JSON report there.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, rerr := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if rerr != nil {
				done <- buf
				return
			}
		}
	}()
	fn()
	w.Close()
	out := <-done
	r.Close()
	return out
}

// TestServeLoadInProcess runs the whole smoke gate end to end against the
// in-process loopback server: a short mixed load must finish with zero
// 4xx or 5xx, zero transport errors, a well-formed JSON report, and exit code 0.
func TestServeLoadInProcess(t *testing.T) {
	var code int
	out := captureStdout(t, func() {
		code = serveLoadMain("", 2, 300*time.Millisecond, 20*time.Second)
	})
	if code != 0 {
		t.Fatalf("serveLoadMain = %d, want 0", code)
	}
	var rep serveLoadReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if rep.Schema != serveLoadSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Status2xx == 0 {
		t.Error("no successful requests")
	}
	if rep.Status4xx != 0 || rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Errorf("4xx = %d, 5xx = %d, transport errors = %d", rep.Status4xx, rep.Status5xx, rep.TransportErrors)
	}
	if rep.P99Ns <= 0 || rep.P99Ns < rep.P50Ns {
		t.Errorf("implausible percentiles: p50 %d p99 %d", rep.P50Ns, rep.P99Ns)
	}
}

// TestServeLoadP99Gate pins the latency gate: an absurdly low limit must
// turn an otherwise clean run into a failure.
func TestServeLoadP99Gate(t *testing.T) {
	var code int
	captureStdout(t, func() {
		code = serveLoadMain("", 1, 200*time.Millisecond, time.Nanosecond)
	})
	if code != 1 {
		t.Fatalf("serveLoadMain with 1ns p99 limit = %d, want 1", code)
	}
}

// TestServeLoadFailsOn4xx pins the 4xx gate: the generator sends only
// well-formed requests, so a server that answers compress with 200 but
// every decompress with 400 is broken and the run must fail even though
// half its requests succeed.
func TestServeLoadFailsOn4xx(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Errorf("read body: %v", err)
		}
		if r.URL.Path == "/v1/decompress" {
			http.Error(w, "bad archive", http.StatusBadRequest)
			return
		}
		if _, err := w.Write([]byte("archive")); err != nil {
			t.Errorf("write response: %v", err)
		}
	}))
	defer srv.Close()
	var code int
	out := captureStdout(t, func() {
		code = serveLoadMain(srv.URL, 2, 200*time.Millisecond, 0)
	})
	if code != 1 {
		t.Fatalf("serveLoadMain against a 400-on-decompress server = %d, want 1", code)
	}
	var rep serveLoadReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out)
	}
	if rep.Status2xx == 0 || rep.Status4xx == 0 || rep.Status5xx != 0 || rep.TransportErrors != 0 {
		t.Fatalf("want both 2xx and 4xx and nothing else: %+v", rep)
	}
}
