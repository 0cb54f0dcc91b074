package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"lrm/internal/sim/heat3d"
)

// TestRunServesAndDrainsOnSigterm drives the real entrypoint: run() binds,
// serves traffic, and a SIGTERM — the orchestrator stop signal — drains it
// to a clean zero exit instead of dropping connections on the floor.
func TestRunServesAndDrainsOnSigterm(t *testing.T) {
	// Reserve a port, free it, and hand it to run. The tiny reuse window
	// is fine for a loopback test.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	codec := make(chan int, 1)
	go func() { codec <- run([]string{"-addr", addr, "-drain-timeout", "5s"}) }()

	// Wait until the server answers; that also guarantees the signal
	// handler is installed (it is registered before Serve starts).
	url := fmt.Sprintf("http://%s/healthz", addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One real request through the full stack.
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/codecs", addr))
	if err != nil {
		t.Fatalf("GET /v1/codecs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/codecs: status %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("run exited %d after SIGTERM, want 0", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit within 10s of SIGTERM")
	}

	if _, err := http.Get(url); err == nil {
		t.Fatal("server still answering after drain")
	}
}

// TestRunPprofProfileCarriesStageLabels boots the full service, drives sz
// compress load, and takes a CPU profile from /debug/pprof/profile within
// the first second. Nothing else in the process holds the runtime's CPU
// profiler, so the capture answers 200, and its samples carry the stage
// pprof labels that `go tool pprof -tagfocus stage=chunk_compress` filters
// on: the profile's string table holds the key "stage" and the value
// "chunk_compress".
func TestRunPprofProfileCarriesStageLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full service and profiles one second of load")
	}
	body := heat3d.Solve(heat3d.Default(32)).Bytes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	codec := make(chan int, 1)
	go func() { codec <- run([]string{"-addr", addr, "-drain-timeout", "5s"}) }()
	defer func() {
		_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case code := <-codec:
			if code != 0 {
				t.Errorf("run exited %d after SIGTERM, want 0", code)
			}
		case <-time.After(10 * time.Second):
			t.Error("run did not exit within 10s of SIGTERM")
		}
	}()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	up := time.Now()

	// Compress load for the profile to sample; it runs until the capture
	// is in.
	loadStop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-loadStop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/compress?dims=32,32,32&codec=sz&mode=abs&bound=1e-6", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	defer func() {
		close(loadStop)
		wg.Wait()
	}()

	if since := time.Since(up); since > time.Second {
		t.Fatalf("profile request not issued within the first second (%v after startup)", since)
	}
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatalf("GET /debug/pprof/profile: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /debug/pprof/profile: read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/profile: status %d: %s", resp.StatusCode, raw)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip profile: %v", err)
	}
	// A profile.proto string_table entry is field 6, wire type 2: the tag
	// byte 0x32, a one-byte length for short strings, then the bytes.
	// Matching that framing finds whole entries, not substrings of
	// function or file names.
	for _, want := range []string{"stage", "chunk_compress"} {
		entry := append([]byte{0x32, byte(len(want))}, want...)
		if !bytes.Contains(pb, entry) {
			t.Errorf("profile string table has no %q entry (%d bytes decoded)", want, len(pb))
		}
	}
}
