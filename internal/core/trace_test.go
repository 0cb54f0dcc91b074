package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/huffman"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// withFullObs enables both observability switches for one test and restores
// registry, ring, and switch state afterwards.
func withFullObs(t *testing.T) {
	t.Helper()
	pm := obs.SetEnabled(true)
	pt := trace.SetEnabled(true)
	obs.Reset()
	trace.Reset()
	t.Cleanup(func() {
		obs.Reset()
		trace.Reset()
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})
}

// TestChunkedTraceNesting pins the acceptance-level span topology: chunk
// spans nest under the chunked-container root, the per-chunk pipeline nests
// under its chunk, and codec worker-shard spans nest under the chunk's
// codec span — even though the work crosses the bounded pool twice.
func TestChunkedTraceNesting(t *testing.T) {
	withFullObs(t)
	f := heatField(t)
	opts := Options{DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 4}}
	res, err := CompressChunkedCtx(context.Background(), f, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWithOptsCtx(context.Background(), res.Archive,
		DecompressOpts{Parallel: parallel.Config{Workers: 4}}); err != nil {
		t.Fatal(err)
	}

	var tr *trace.Trace
	for _, cand := range trace.Snapshot() {
		if cand.Root == "core.compress_chunked" {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatal("no core.compress_chunked trace retained")
	}

	byID := map[uint64]trace.SpanRecord{}
	var rootID uint64
	for _, s := range tr.Spans {
		byID[s.SpanID] = s
		if s.ParentID == 0 {
			rootID = s.SpanID
		}
	}
	// ancestor walks up the parent chain looking for a span name.
	ancestor := func(s trace.SpanRecord, name string) bool {
		for s.ParentID != 0 {
			p, ok := byID[s.ParentID]
			if !ok {
				return false
			}
			if p.Name == name {
				return true
			}
			s = p
		}
		return false
	}

	chunks, shards := 0, 0
	for _, s := range tr.Spans {
		switch s.Name {
		case "core.chunk_compress":
			chunks++
			if s.ParentID != rootID {
				t.Errorf("chunk span %d parents onto %d, want the container root %d",
					s.SpanID, s.ParentID, rootID)
			}
		case "zfp.shard_encode":
			shards++
			if !ancestor(s, "core.chunk_compress") {
				t.Errorf("shard span %d has no core.chunk_compress ancestor", s.SpanID)
			}
		case "core.compress":
			if !ancestor(s, "core.chunk_compress") {
				t.Errorf("per-chunk pipeline span %d not nested under its chunk", s.SpanID)
			}
		}
	}
	if chunks != 2 {
		t.Errorf("got %d chunk spans, want 2", chunks)
	}
	if shards == 0 {
		t.Error("no worker-shard spans recorded under the chunks")
	}

	// The decode side must mirror the topology: the public wrapper's
	// core.decompress root contains the container span, which contains the
	// per-chunk decode spans.
	var dtr *trace.Trace
	for _, cand := range trace.Snapshot() {
		if cand.Root == "core.decompress" {
			dtr = cand
		}
	}
	if dtr == nil {
		t.Fatal("no core.decompress trace retained")
	}
	container, decodes := 0, 0
	for _, s := range dtr.Spans {
		switch s.Name {
		case "core.decompress_chunked":
			container++
		case "core.chunk_decode":
			decodes++
		}
	}
	if container != 1 {
		t.Errorf("got %d container decode spans, want 1", container)
	}
	if decodes != 2 {
		t.Errorf("got %d chunk decode spans, want 2", decodes)
	}
}

// countSpans counts the spans named name in the retained trace rooted at
// root (the last one, if several are retained).
func countSpans(t *testing.T, root, name string) int {
	t.Helper()
	return countSpansUnder(t, root, "", name)
}

// countSpansUnder is countSpans restricted to spans whose parent span is
// named parent ("" matches any parent).
func countSpansUnder(t *testing.T, root, parent, name string) int {
	t.Helper()
	var tr *trace.Trace
	for _, cand := range trace.Snapshot() {
		if cand.Root == root {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatalf("no %s trace retained", root)
	}
	names := map[uint64]string{}
	for _, s := range tr.Spans {
		names[s.SpanID] = s.Name
	}
	n := 0
	for _, s := range tr.Spans {
		if s.Name == name && (parent == "" || names[s.ParentID] == parent) {
			n++
		}
	}
	return n
}

// TestReduceKernelSpansNest pins where the model's kernel spans sit: Fit's
// reduce.covariance, reduce.eigen and reduce.svd under core.reduce, and
// Reconstruct's reduce.reconstruct directly under core.compress (between
// core.rep_store and core.delta) and under core.decompress.
func TestReduceKernelSpansNest(t *testing.T) {
	withFullObs(t)
	f := heatField(t)
	for _, tc := range []struct {
		model   reduce.Model
		kernels []string
	}{
		{reduce.PCA{}, []string{"reduce.covariance", "reduce.eigen"}},
		{reduce.SVD{}, []string{"reduce.svd"}},
	} {
		trace.Reset()
		res, err := CompressCtx(context.Background(), f, Options{Model: tc.model, DataCodec: zfp.MustNew(16)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecompressCtx(context.Background(), res.Archive); err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.kernels {
			if n := countSpansUnder(t, "core.compress", "core.reduce", k); n != 1 {
				t.Errorf("%s: %d %s spans under core.reduce, want 1", tc.model.Name(), n, k)
			}
		}
		for _, root := range []string{"core.compress", "core.decompress"} {
			if n := countSpansUnder(t, root, root, "reduce.reconstruct"); n != 1 {
				t.Errorf("%s: %d reduce.reconstruct spans under %s, want 1", tc.model.Name(), n, root)
			}
		}
	}
}

// TestParallelConfigReachesCodecs checks that the whole parallel.Config,
// not just its worker count, reaches the codec on both the single-archive
// decode path and the chunked compress path. The field is far below the
// default shard cutover, so only MinShardBytes: -1 lets the zfp kernels
// shard it; the result must still match a serial decode exactly.
func TestParallelConfigReachesCodecs(t *testing.T) {
	withFullObs(t)
	f := grid.New(16, 16, 16)
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i) / 37)
	}
	ctx := context.Background()
	cfg := parallel.Config{Workers: 4, MinShardBytes: -1}
	res, err := CompressCtx(context.Background(), f, Options{DataCodec: zfp.MustNew(16)})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := DecompressWithOptsCtx(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	trace.Reset()
	got, err := DecompressWithOptsCtx(ctx, res.Archive, DecompressOpts{Parallel: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(serial.Data[i]) {
			t.Fatalf("sharded decode differs from serial at %d", i)
		}
	}
	if n := countSpans(t, "core.decompress", "zfp.shard_decode"); n <= 1 {
		t.Errorf("decode with MinShardBytes -1 ran %d zfp.shard_decode spans, want > 1", n)
	}

	// 8 workers over 2 chunks leaves 4 per chunk's codec, and the chunks
	// keep the caller's cutover.
	chunked := Options{DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 8, MinShardBytes: -1}}
	if _, err := CompressChunkedCtx(ctx, f, chunked, 2); err != nil {
		t.Fatal(err)
	}
	if n := countSpans(t, "core.compress_chunked", "zfp.shard_encode"); n <= 2 {
		t.Errorf("chunked compress with MinShardBytes -1 ran %d zfp.shard_encode spans, want > 2", n)
	}

	// WorkersFor is the kernels' only size cutover: with it disabled even
	// tiny inputs — a 33x47 sz field, ten zfp blocks, 100 Huffman symbols —
	// must fork the pool and still match the Workers: 1 bytes.
	f2 := grid.New(33, 47)
	for i := range f2.Data {
		f2.Data[i] = math.Sin(float64(i) / 11)
	}
	f1 := grid.New(37)
	for i := range f1.Data {
		f1.Data[i] = math.Cos(float64(i) / 5)
	}
	syms := make([]int, 100)
	for i := range syms {
		syms[i] = i * i % 7
	}
	small := []struct {
		name string
		run  func(parallel.Config) ([]byte, error)
	}{
		{"sz 33x47", func(p parallel.Config) ([]byte, error) { return sz.MustNew(sz.Abs, 1e-4).Compress(ctx, f2, p) }},
		{"zfp 37", func(p parallel.Config) ([]byte, error) { return zfp.MustNew(16).Compress(ctx, f1, p) }},
		{"huffman 100", func(p parallel.Config) ([]byte, error) {
			return huffman.Encode(syms, p.WorkersFor(8*int64(len(syms)))), nil
		}},
	}
	tasks := obs.GetCounter("parallel.tasks")
	for _, tc := range small {
		want, err := tc.run(parallel.Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s at Workers: 1: %v", tc.name, err)
		}
		t0 := tasks.Value()
		got, err := tc.run(cfg)
		if err != nil {
			t.Fatalf("%s at %+v: %v", tc.name, cfg, err)
		}
		if dt := tasks.Value() - t0; dt <= 1 {
			t.Errorf("%s at %+v ran %d parallel.tasks, want > 1", tc.name, cfg, dt)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s at %+v: stream differs from Workers: 1", tc.name, cfg)
		}
	}

	// The reduce layer takes the same budget: a 12³ PCA or SVD fit and
	// reconstruct forks at MinShardBytes -1 (the covariance and the
	// randomized SVD's products included) and matches Workers: 1 bit for bit.
	f3 := grid.New(12, 12, 12)
	for i := range f3.Data {
		f3.Data[i] = math.Sin(float64(i)/13) + math.Cos(float64(i)/150)
	}
	pooled := obs.GetHistogram("parallel.task.ns", nil)
	for _, m := range []reduce.Model{reduce.PCA{}, reduce.SVD{}, reduce.SVD{MaxK: 4, Randomized: true, Seed: 3}} {
		fitAndRebuild := func(p parallel.Config) ([]byte, error) {
			rep, err := m.Fit(ctx, f3, p)
			if err != nil {
				return nil, err
			}
			recon, err := rep.Reconstruct(ctx, p)
			if err != nil {
				return nil, err
			}
			vals, err := grid.FromData(rep.Values, len(rep.Values))
			if err != nil {
				return nil, err
			}
			out := append([]byte(nil), rep.Meta...)
			return append(append(out, vals.Bytes()...), recon.Bytes()...), nil
		}
		want, err := fitAndRebuild(parallel.Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s at Workers: 1: %v", m.Name(), err)
		}
		p0 := pooled.Snapshot().Count
		got, err := fitAndRebuild(cfg)
		if err != nil {
			t.Fatalf("%s at %+v: %v", m.Name(), cfg, err)
		}
		if dp := pooled.Snapshot().Count - p0; dp < 2 {
			t.Errorf("%s at %+v ran %d pooled tasks, want at least 2", m.Name(), cfg, dp)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s at %+v: rep or reconstruction differs from Workers: 1", m.Name(), cfg)
		}
	}
}

// TestExemplarResolvesToRetainedTrace pins the metrics↔trace join: the
// latency histogram's exemplar comment in the Prometheus exposition names a
// trace ID that a Snapshot still holds and the Chrome export contains.
func TestExemplarResolvesToRetainedTrace(t *testing.T) {
	withFullObs(t)
	f := heatField(t)
	opts := Options{DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 2}}
	if _, err := CompressCtx(context.Background(), f, opts); err != nil {
		t.Fatal(err)
	}

	var prom bytes.Buffer
	if err := obs.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var exemplarID string
	for _, line := range strings.Split(prom.String(), "\n") {
		if !strings.HasPrefix(line, "# exemplar") || !strings.Contains(line, "core_compress") {
			continue
		}
		_, rest, ok := strings.Cut(line, `trace_id="`)
		if !ok {
			continue
		}
		exemplarID, _, _ = strings.Cut(rest, `"`)
		break
	}
	if exemplarID == "" {
		t.Fatalf("no core.compress exemplar in the exposition:\n%s", prom.String())
	}

	traces := trace.Snapshot()
	found := false
	for _, tr := range traces {
		if tr.IDString() == exemplarID {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar trace %s not retained by the ring", exemplarID)
	}
	var chrome bytes.Buffer
	if err := trace.WriteChromeTrace(&chrome, traces); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), exemplarID) {
		t.Errorf("exemplar trace %s missing from the Chrome export", exemplarID)
	}
}

// TestTracingPreservesStreams pins the byte-identical guarantee: enabling
// metrics and tracing must not change a single output byte, for both the
// single-field pipeline and the chunked container.
func TestTracingPreservesStreams(t *testing.T) {
	f := heatField(t)
	opts := Options{DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 4}}

	pm := obs.SetEnabled(false)
	pt := trace.SetEnabled(false)
	plain, err := CompressCtx(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	plainChunked, err := CompressChunkedCtx(context.Background(), f, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	trace.SetEnabled(true)
	t.Cleanup(func() {
		obs.Reset()
		trace.Reset()
		obs.SetEnabled(pm)
		trace.SetEnabled(pt)
	})

	traced, err := CompressCtx(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	tracedChunked, err := CompressChunkedCtx(context.Background(), f, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Archive, traced.Archive) {
		t.Error("tracing changed the single-field archive bytes")
	}
	if !bytes.Equal(plainChunked.Archive, tracedChunked.Archive) {
		t.Error("tracing changed the chunked archive bytes")
	}
}
