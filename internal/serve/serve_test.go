package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/serve"
	"lrm/internal/sim/heat3d"
)

// testField returns a smooth physical field (heat3d steady state) plus its
// wire bytes — realistic input for every codec family.
func testField(n int) (*grid.Field, []byte) {
	f := heat3d.Solve(heat3d.Default(n))
	return f, f.Bytes()
}

func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to path and returns the response with its body drained.
func post(t *testing.T, url, path string, body []byte, hdrs map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp, b
}

func TestRoundTripCodecs(t *testing.T) {
	f, raw := testField(12)
	_, ts := newServer(t, serve.Config{})
	dims := "12,12,12"

	cases := []struct {
		name     string
		query    string
		lossless bool
		tol      float64
	}{
		{"flate", "codec=flate&level=6", true, 0},
		{"fpc", "codec=fpc&level=12", true, 0},
		{"zfp-precision", "codec=zfp&precision=24", false, 1e-3},
		{"zfp-accuracy", "codec=zfp&accuracy=1e-6", false, 1e-3},
		{"sz-abs", "codec=sz&mode=abs&bound=1e-6", false, 1e-3},
		{"default", "", false, 1e-1}, // zfp precision 16: coarse bound
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, archive := post(t, ts.URL, "/v1/compress?dims="+dims+"&"+tc.query, raw, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: status %d: %s", resp.StatusCode, archive)
			}
			if resp.Header.Get("X-Lrm-Codec") == "" || resp.Header.Get("X-Lrm-Ratio") == "" {
				t.Errorf("compress: missing X-Lrm-Codec/X-Lrm-Ratio headers")
			}

			resp, field := post(t, ts.URL, "/v1/decompress", archive, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("decompress: status %d: %s", resp.StatusCode, field)
			}
			if got := resp.Header.Get("X-Lrm-Dims"); got != dims {
				t.Errorf("X-Lrm-Dims = %q, want %q", got, dims)
			}
			if len(field) != len(raw) {
				t.Fatalf("payload length %d, want %d", len(field), len(raw))
			}
			if tc.lossless && !bytes.Equal(field, raw) {
				t.Error("lossless round trip is not byte-identical")
			}
			if !tc.lossless {
				g, err := grid.FromBytes(field, f.Dims...)
				if err != nil {
					t.Fatalf("FromBytes: %v", err)
				}
				for i := range g.Data {
					if d := g.Data[i] - f.Data[i]; d > tc.tol || d < -tc.tol {
						t.Fatalf("point %d off by %g (tol %g)", i, d, tc.tol)
					}
				}
			}
		})
	}
}

func TestRequestValidation(t *testing.T) {
	_, raw := testField(8)
	_, ts := newServer(t, serve.Config{})

	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
	}{
		{"missing dims", "/v1/compress", raw, 400},
		{"bad dims rank", "/v1/compress?dims=1,2,3,4", raw, 400},
		{"bad dims value", "/v1/compress?dims=8,nope,8", raw, 400},
		{"body mismatch", "/v1/compress?dims=9,9,9", raw, 400},
		{"unknown codec", "/v1/compress?dims=8,8,8&codec=lz4", raw, 400},
		{"bad precision", "/v1/compress?dims=8,8,8&codec=zfp&precision=0", raw, 400},
		{"bad flate level", "/v1/compress?dims=8,8,8&codec=flate&level=12", raw, 400},
		{"bad sz mode", "/v1/compress?dims=8,8,8&codec=sz&mode=ultra", raw, 400},
		{"bad chunks", "/v1/compress?dims=8,8,8&chunks=-2", raw, 400},
		{"empty archive", "/v1/decompress", nil, 422},
		{"garbage archive", "/v1/decompress", []byte("not an archive at all"), 422},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL, tc.path, tc.body, nil)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/compress?dims=8,8,8")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status %d, want 405", resp.StatusCode)
		}
		if resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("Allow = %q", resp.Header.Get("Allow"))
		}
	})

	t.Run("header negotiation", func(t *testing.T) {
		resp, body := post(t, ts.URL, "/v1/compress", raw,
			map[string]string{"X-Lrm-Dims": "8,8,8", "X-Lrm-Codec": "flate"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Lrm-Codec"); !strings.HasPrefix(got, "flate") {
			t.Errorf("X-Lrm-Codec = %q, want flate*", got)
		}
	})
}

func TestOversizedBody(t *testing.T) {
	_, ts := newServer(t, serve.Config{MaxBodyBytes: 1024})
	resp, body := post(t, ts.URL, "/v1/compress?dims=8,8,8", make([]byte, 4096), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
}

func TestQuotaRejection(t *testing.T) {
	_, raw := testField(8)
	// Burst of 2 with negligible refill: two requests pass, the third hits
	// the empty bucket.
	_, ts := newServer(t, serve.Config{QuotaRPS: 1e-6, QuotaBurst: 2})

	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw,
			map[string]string{"X-API-Key": "tenant-a"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, _ := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw,
		map[string]string{"X-API-Key": "tenant-a"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("throttled request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Quotas are per tenant: a different key has its own full bucket.
	resp, body := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw,
		map[string]string{"X-API-Key": "tenant-b"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: status %d (%s)", resp.StatusCode, body)
	}
}

// waitCounter polls an obs counter until it reaches want or the deadline
// passes; metric recording trails response writes by a goroutine schedule.
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s = %d, want >= %d", c.Name(), c.Value(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdmissionControl(t *testing.T) {
	_, raw := testField(8)
	_, ts := newServer(t, serve.Config{MaxInFlight: 1})
	inflight := obs.GetGauge("serve.compress.inflight")

	// Occupy the only slot: a request whose body never finishes keeps its
	// handler parked in the body read, holding the semaphore.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress?dims=8,8,8&codec=flate", pr)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocking request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated 429 without Retry-After")
	}

	// Release the slot; the parked request finishes (400: short body) and
	// the next request is admitted again.
	pw.Close()
	<-done
	resp, body = post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d (%s)", resp.StatusCode, body)
	}
}

func TestClientDisconnectCancels(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	canceled := obs.GetCounter("serve.compress.canceled")
	before := canceled.Value()

	// Park the handler in the body read, then vanish: the server must
	// observe the disconnect, count it, and answer nobody.
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/compress?dims=8,8,8&codec=flate", pr)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(make([]byte, 64)); err != nil {
		t.Fatalf("priming write: %v", err)
	}
	cancel()
	pw.CloseWithError(context.Canceled)
	<-done

	waitCounter(t, canceled, before+1)
}

func TestDeadlineAbortsPipeline(t *testing.T) {
	_, raw := testField(8)
	// A deadline that has already passed when the pipeline starts: the
	// chunk loop must abort at its first boundary and surface 503, not 5xx
	// chaos or a full compression on a dead budget.
	_, ts := newServer(t, serve.Config{RequestTimeout: time.Nanosecond})
	resp, body := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("503 body %q does not mention the deadline", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline 503 without Retry-After")
	}
}

func TestDrain(t *testing.T) {
	_, raw := testField(8)
	s, ts := newServer(t, serve.Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() false after Shutdown")
	}

	// The handler (still mounted under httptest's own listener) must turn
	// traffic away: probes and API requests alike get 503 + Retry-After.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", resp.StatusCode)
	}
	resp2, body := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw, nil)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("compress during drain: status %d, want 503 (%s)", resp2.StatusCode, body)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}
}

func TestCacheHitAndCorruptMiss(t *testing.T) {
	_, raw := testField(10)
	_, ts := newServer(t, serve.Config{})

	resp, archive := post(t, ts.URL, "/v1/compress?dims=10,10,10&codec=flate&chunks=4", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d", resp.StatusCode)
	}

	resp, first := post(t, ts.URL, "/v1/decompress", archive, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lrm-Cache") != "miss" {
		t.Fatalf("first decompress: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Lrm-Cache"))
	}
	resp, second := post(t, ts.URL, "/v1/decompress", archive, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lrm-Cache") != "hit" {
		t.Fatalf("second decompress: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Lrm-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit returned different bytes")
	}
	if got := resp.Header.Get("X-Lrm-Dims"); got != "10,10,10" {
		t.Errorf("cached X-Lrm-Dims = %q", got)
	}

	// A payload flip must NOT hit the clean archive's cache entry — the key
	// is recomputed over payload bytes, so the corrupt variant misses and
	// then fails decode instead of silently serving the cached clean field.
	mut := append([]byte(nil), archive...)
	mut[len(mut)-3] ^= 0xFF
	resp, body := post(t, ts.URL, "/v1/decompress", mut, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt decompress: status %d, want 422 (%s)", resp.StatusCode, body)
	}
}

func TestCacheEviction(t *testing.T) {
	_, rawA := testField(10)
	fB := heat3d.Solve(heat3d.Default(11))
	rawB := fB.Bytes()
	// Budget fits one decompressed field (10^3 or 11^3 doubles), never two.
	_, ts := newServer(t, serve.Config{CacheBytes: 12 << 10})
	evictions := obs.GetCounter("serve.cache.evictions")
	before := evictions.Value()

	compress := func(dims string, raw []byte) []byte {
		resp, archive := post(t, ts.URL, "/v1/compress?dims="+dims+"&codec=flate&chunks=2", raw, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compress %s: status %d", dims, resp.StatusCode)
		}
		return archive
	}
	decompress := func(archive []byte) string {
		resp, _ := post(t, ts.URL, "/v1/decompress", archive, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decompress: status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Lrm-Cache")
	}

	archA, archB := compress("10,10,10", rawA), compress("11,11,11", rawB)
	if got := decompress(archA); got != "miss" {
		t.Fatalf("A first: cache %q", got)
	}
	if got := decompress(archB); got != "miss" { // evicts A
		t.Fatalf("B first: cache %q", got)
	}
	if got := decompress(archA); got != "miss" { // A was evicted
		t.Fatalf("A second: cache %q, want miss after eviction", got)
	}
	waitCounter(t, evictions, before+1)
}

// TestPartialCacheHitReportsChunks posts one 4-chunk archive twice under
// ?partial=1: the miss and the cache hit both report its 4 chunks.
func TestPartialCacheHitReportsChunks(t *testing.T) {
	_, raw := testField(8)
	_, ts := newServer(t, serve.Config{})
	resp, archive := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate&chunks=4", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d", resp.StatusCode)
	}
	for _, want := range []string{"miss", "hit"} {
		resp, body := post(t, ts.URL, "/v1/decompress?partial=1", archive, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", want, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Lrm-Cache"); got != want {
			t.Fatalf("X-Lrm-Cache = %q, want %q", got, want)
		}
		if got := resp.Header.Get("X-Lrm-Chunks"); got != "4" {
			t.Errorf("%s: X-Lrm-Chunks = %q, want 4", want, got)
		}
		if !bytes.Equal(body, raw) {
			t.Errorf("%s: payload differs from the flate-coded original", want)
		}
	}
}

// TestPartialRefusesCachedLRM1 caches an LRM1 archive's decode, then asks
// for it under ?partial=1: degraded mode refuses LRM1, and the cached
// entry must not answer in its place.
func TestPartialRefusesCachedLRM1(t *testing.T) {
	f, _ := testField(8)
	res, err := core.Compress(context.Background(), f, core.Options{DataCodec: compress.NewFlate(6)})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, serve.Config{})
	if resp, body := post(t, ts.URL, "/v1/decompress", res.Archive, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("strict: status %d (%s)", resp.StatusCode, body)
	}
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL, "/v1/decompress?partial=1", res.Archive, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("partial #%d: status %d (X-Lrm-Cache %q), want 422", i, resp.StatusCode, resp.Header.Get("X-Lrm-Cache"))
		}
	}
}

func TestPartialDecode(t *testing.T) {
	_, raw := testField(10)
	_, ts := newServer(t, serve.Config{CacheBytes: -1})

	resp, archive := post(t, ts.URL, "/v1/compress?dims=10,10,10&codec=flate&chunks=5", raw, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: status %d", resp.StatusCode)
	}
	mut := append([]byte(nil), archive...)
	mut[len(mut)-3] ^= 0xFF

	resp, body := post(t, ts.URL, "/v1/decompress", mut, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("strict: status %d, want 422 (%s)", resp.StatusCode, body)
	}

	resp, body = post(t, ts.URL, "/v1/decompress?partial=1", mut, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Lrm-Chunk-Errors"); got != "1" {
		t.Errorf("X-Lrm-Chunk-Errors = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Lrm-Failed-Chunks"); got == "" {
		t.Error("partial response missing X-Lrm-Failed-Chunks")
	}
	if got := resp.Header.Get("X-Lrm-Chunks"); got != "5" {
		t.Errorf("X-Lrm-Chunks = %q, want 5", got)
	}
	if len(body) != len(raw) {
		t.Fatalf("partial payload length %d, want %d", len(body), len(raw))
	}
	// Intact chunks survive: the payload agrees with the original outside
	// the failed slab, and the failed slab is zeroed, so the two differ.
	if bytes.Equal(body, raw) {
		t.Error("partial decode of a corrupted archive is byte-identical to the original")
	}
}

// TestClaimedChunksBomb422: an 11-byte LRMC header claiming 2^20 (or 2^16)
// chunks is refused as malformed input in both decode modes, without the
// handler sizing anything by the claim.
func TestClaimedChunksBomb422(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	for _, claimed := range []uint64{1 << 20, 1 << 16} {
		body := binary.AppendUvarint([]byte("LRMC"), claimed)
		body = binary.AppendUvarint(append(body, 1), claimed)
		for _, path := range []string{"/v1/decompress", "/v1/decompress?partial=1"} {
			resp, respBody := post(t, ts.URL, path, body, nil)
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("POST %s (%d chunks claimed): status %d, want 422 (%s)", path, claimed, resp.StatusCode, respBody)
			}
		}
	}
}

// TestMalformedArchivesNever5xx sweeps mutations of every corpus archive
// through both decompress modes: whatever the damage, the server must
// answer with a complete non-5xx response — malformed input is always the
// client's fault and never crashes a worker.
func TestMalformedArchivesNever5xx(t *testing.T) {
	corpus := filepath.Join("..", "faultinject", "testdata", "corpus")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	_, ts := newServer(t, serve.Config{})

	check := func(t *testing.T, path string, body []byte) {
		t.Helper()
		resp, respBody := post(t, ts.URL, path, body, nil)
		if resp.StatusCode >= 500 {
			t.Errorf("POST %s (%d bytes): status %d: %s", path, len(body), resp.StatusCode, respBody)
		}
	}

	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".bin") {
			continue
		}
		seed, err := os.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatalf("reading %s: %v", e.Name(), err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			var mutants [][]byte
			// Truncations at evenly spaced offsets, including the empty body.
			for i := 0; i <= 8; i++ {
				mutants = append(mutants, seed[:len(seed)*i/9])
			}
			// Byte corruption at evenly spaced offsets.
			for i := 0; i < 16; i++ {
				m := append([]byte(nil), seed...)
				m[len(m)*i/16] ^= 0xFF
				mutants = append(mutants, m)
			}
			// Varint bomb right after the magic: maximal continuation bytes.
			bomb := append([]byte(nil), seed...)
			for i := 4; i < len(bomb) && i < 14; i++ {
				bomb[i] = 0xFF
			}
			mutants = append(mutants, bomb)
			// Magic splice: claim to be the other container format.
			for _, magic := range []string{"LRMC", "LRM1", "ZZZZ"} {
				m := append([]byte(nil), seed...)
				copy(m, magic)
				mutants = append(mutants, m)
			}
			for _, m := range mutants {
				for _, mode := range []string{"", "?partial=1"} {
					check(t, "/v1/decompress"+mode, m)
				}
			}
		})
	}
}

func TestCodecsAndDebugEndpoints(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	for _, path := range []string{"/v1/codecs", "/healthz", "/metrics", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
	// /metrics and /debug/history are the one snapshot and the one
	// history; their JSON and HTML second renderings stay gone.
	for _, path := range []string{"/debug/vars", "/debug/dash"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestEndpointMetricsRecorded(t *testing.T) {
	_, raw := testField(8)
	requests := obs.GetCounter("serve.compress.requests")
	s4xx := obs.GetCounter("serve.compress.status_4xx")
	reqBefore, s4Before := requests.Value(), s4xx.Value()

	_, ts := newServer(t, serve.Config{})
	if resp, _ := post(t, ts.URL, "/v1/compress?dims=8,8,8&codec=flate", raw, nil); resp.StatusCode != 200 {
		t.Fatalf("compress: status %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL, "/v1/compress", raw, nil); resp.StatusCode != 400 {
		t.Fatalf("bad compress: status %d", resp.StatusCode)
	}
	waitCounter(t, requests, reqBefore+2)
	waitCounter(t, s4xx, s4Before+1)

	if lat := obs.GetHistogram("serve.compress.ns", nil); lat.Snapshot().Count == 0 {
		t.Error("latency histogram never observed")
	}
}
