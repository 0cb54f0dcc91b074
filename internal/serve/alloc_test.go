package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
	"lrm/internal/serve"
)

// bytesPerCall is the heap allocated by one call of fn, averaged over a
// few calls after a warm-up (which fills the buffer pools).
func bytesPerCall(fn func()) uint64 {
	fn()
	const runs = 8
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// quietObs turns metrics and tracing off for one test: with them on, a
// sampled quality check decodes the archive and allocates a second field.
func quietObs(t *testing.T) {
	t.Helper()
	pm, pt := obs.SetEnabled(false), trace.SetEnabled(false)
	t.Cleanup(func() {
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})
}

// serveOnce runs one request through the handler on a recorder.
func serveOnce(h http.Handler, target string, body []byte, contentLength int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestCompressAllocationFollowsBody: a served compress allocates what the
// library call allocates, plus at most 1.5× the body for reading it into
// the field, plus a constant for the request plumbing and the recorder's
// copy of the archive. Reading the body whole (512 B doubling by 1.25×)
// and then copying it into a fresh field cost about 3.5× the body.
func TestCompressAllocationFollowsBody(t *testing.T) {
	quietObs(t)
	f, raw := testField(32)
	const target = "/v1/compress?dims=32,32,32&codec=zfp&accuracy=1e-4"
	h := serve.New(serve.Config{Workers: 1}).Handler()

	var archive []byte
	served := bytesPerCall(func() {
		rec := serveOnce(h, target, raw, int64(len(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		archive = rec.Body.Bytes()
	})
	opts := core.Options{DataCodec: zfp.MustNewAccuracy(1e-4), Parallel: parallel.Config{Workers: 1}}
	library := bytesPerCall(func() {
		if _, err := core.CompressChunked(context.Background(), f, opts, 8); err != nil {
			t.Fatal(err)
		}
	})

	// The recorder grows a buffer to hold the archive (up to twice its
	// size); requests, headers and the deadline timer fit in 32 KiB.
	budget := library + uint64(len(raw))*3/2 + 2*uint64(len(archive)) + 32<<10
	t.Logf("served %d B, library %d B, body %d B, archive %d B", served, library, len(raw), len(archive))
	if served > budget {
		t.Errorf("served compress allocated %d B per request, want ≤ %d (library %d + 1.5×%d body + plumbing)",
			served, budget, library, len(raw))
	}
}

// TestCompressHostileClaimsAllocateLittle: a body claiming far more values
// than it carries is refused with 400, having allocated under a MiB —
// whether the claim is in dims (2^40 values for 16 bytes) or in a
// Content-Length that the body does not honour.
func TestCompressHostileClaimsAllocateLittle(t *testing.T) {
	quietObs(t)
	h := serve.New(serve.Config{}).Handler()
	body := make([]byte, 16)
	for _, tc := range []struct {
		name, target  string
		contentLength int64
	}{
		{"dims", "/v1/compress?dims=1048576,1048576,1", 16},
		{"content-length", "/v1/compress?dims=128,128,128", 8 << 21},
	} {
		got := bytesPerCall(func() {
			rec := serveOnce(h, tc.target, body, tc.contentLength)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400 (%s)", tc.name, rec.Code, rec.Body.Bytes())
			}
		})
		if got >= 1<<20 {
			t.Errorf("%s: a 16-byte body allocated %d B, want < 1 MiB", tc.name, got)
		}
	}
}

// zeroRecordsBody is a size-byte LRMC body over a one-column field of
// `claimed` rows claiming `claimed` one-row chunks, zero after the header:
// every record frames as an empty record that fails its CRC.
func zeroRecordsBody(claimed, size int) []byte {
	b := binary.AppendUvarint([]byte("LRMC"), uint64(claimed))
	b = append(b, compress.EncodeDimsHeader([]int{claimed})...)
	return append(b, make([]byte, size-len(b))...)
}

// TestPartialDecodeHostileRecordsBounded: through /v1/decompress?partial=1
// with metrics and tracing on (as lrmserve runs), a 512 KiB body claiming
// 2^19 empty records is refused with 422, and a body claiming the most
// records its size allows answers 200 with every chunk reported failed.
// Each allocates under 40 MB; the first used to cost 175 MB.
func TestPartialDecodeHostileRecordsBounded(t *testing.T) {
	pm, pt := obs.SetEnabled(true), trace.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})
	h := serve.New(serve.Config{CacheBytes: -1}).Handler()
	const size = 512 << 10
	for _, tc := range []struct {
		claimed, status int
	}{
		{1 << 19, http.StatusUnprocessableEntity},
		{(size - 16) / 13, http.StatusOK}, // one record per 13 bytes, the smallest well-formed one
	} {
		body := zeroRecordsBody(tc.claimed, size)
		got := bytesPerCall(func() {
			rec := serveOnce(h, "/v1/decompress?partial=1", body, int64(len(body)))
			if rec.Code != tc.status {
				t.Fatalf("%d claimed chunks: status %d, want %d", tc.claimed, rec.Code, tc.status)
			}
			if tc.status == http.StatusOK {
				if n := rec.Header().Get("X-Lrm-Chunk-Errors"); n != strconv.Itoa(tc.claimed) {
					t.Errorf("%d claimed chunks: X-Lrm-Chunk-Errors = %s", tc.claimed, n)
				}
			}
		})
		if got >= 40<<20 {
			t.Errorf("%d claimed chunks: request allocated %d B, want < 40 MB", tc.claimed, got)
		}
	}
}

// BenchmarkServeCompress is one served 32³ zfp-accuracy compress on a
// recorder, with observability off, metrics on, and metrics plus tracing
// (as lrmserve runs). Quality sampling stays at its default 1 in 16.
//
//	go test -run '^$' -bench ServeCompress -benchmem ./internal/serve/
func BenchmarkServeCompress(b *testing.B) {
	_, raw := testField(32)
	const target = "/v1/compress?dims=32,32,32&codec=zfp&accuracy=1e-4"
	h := serve.New(serve.Config{}).Handler()
	for _, mode := range []struct {
		name             string
		metrics, tracing bool
	}{{"off", false, false}, {"metrics", true, false}, {"traced", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			pm, pt := obs.SetEnabled(mode.metrics), trace.SetEnabled(mode.tracing)
			defer func() {
				obs.SetEnabled(pm)
				trace.SetEnabled(pt)
			}()
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rec := serveOnce(h, target, raw, int64(len(raw))); rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

// TestDecompressClaimedDimsRefused: a one-base LRM1 archive whose header
// claims dims {2^24, 1} over a 1-value rep and a {4, 1} zfp delta answers
// 422 without allocating for the claim (it used to cost 134 MB before the
// dims mismatch was found).
func TestDecompressClaimedDimsRefused(t *testing.T) {
	quietObs(t)
	codec := zfp.MustNewAccuracy(1e-3)
	stream := func(n int) []byte {
		f, err := grid.NewChecked(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := codec.Compress(context.Background(), f, parallel.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	meta, err := compress.FlateBytes(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	str := func(b, s []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	family := []byte(compress.CodecFamily(codec.Name()))
	body := append([]byte("LRM1"), 1) // preconditioned mode
	body = str(body, family)
	body = str(body, []byte("one-base"))
	body = append(body, compress.EncodeDimsHeader([]int{1 << 24, 1})...)
	body = binary.AppendUvarint(body, 0) // meta length
	body = str(body, meta)
	body = str(body, stream(1))
	body = str(body, family)
	body = str(body, stream(4))

	h := serve.New(serve.Config{CacheBytes: -1}).Handler()
	got := bytesPerCall(func() {
		if rec := serveOnce(h, "/v1/decompress", body, int64(len(body))); rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422 (%s)", rec.Code, rec.Body.String())
		}
	})
	if got >= 1<<20 {
		t.Errorf("request allocated %d B, want < 1 MiB", got)
	}
}
