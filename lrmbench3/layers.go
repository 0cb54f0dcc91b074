package main

// This file is the benchmark's only way into the library. Every other file
// calls the functions below and imports nothing under lrm/internal, so an
// API change in the library needs a change here and nowhere else. Only
// exported entry points are used.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"lrm/internal/compress"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
	"lrm/internal/serve"
	"lrm/internal/sim/astro"
	"lrm/internal/sim/heat3d"
	"lrm/internal/sim/md"
)

// Field is a dense float64 field of rank 1 to 3.
type Field = grid.Field

// Result is a compression outcome with its rep/delta byte split.
type Result = core.Result

// Codec is a configured codec; Model is a reduced model (nil = direct).
type (
	Codec = compress.Codec
	Model = reduce.Model
	Rep   = reduce.Rep
)

// --- inputs ---

// heatSnapshots runs the Heat3d solver on an n³ grid for steps steps and
// returns count evenly spaced snapshots.
func heatSnapshots(n, steps, count int) []*Field {
	cfg := heat3d.Default(n)
	cfg.Steps = steps
	return heat3d.Snapshots(cfg, count)
}

// astroRealization is the Astro velocity field on an n³ grid with the
// generator's turbulence seeded by seed.
func astroRealization(n int, seed int64) *Field {
	cfg := astro.Default(n)
	cfg.Seed = seed
	return astro.Generate(cfg)
}

// umbrellaRealization is the final coordinate frame (3 values per atom) of
// the Umbrella molecular-dynamics run started from seed.
func umbrellaRealization(atoms int, seed int64) (*Field, error) {
	cfg := md.DefaultUmbrella(atoms)
	cfg.Seed = seed
	return md.Run(cfg)
}

func fieldFromData(data []float64, dims ...int) (*Field, error) {
	return grid.FromData(data, dims...)
}

func fieldBytes(f *Field) []byte { return f.Bytes() }

func fieldFromBytes(b []byte, dims []int) (*Field, error) { return grid.FromBytes(b, dims...) }

// --- codecs and models ---

// newCodec builds the workload codec of a family with absolute bound eps:
// sz in absolute mode, zfp in accuracy mode. Both declare |x − x′| ≤ eps.
func newCodec(family string, eps float64) (Codec, error) {
	switch family {
	case "sz":
		return sz.New(sz.Abs, eps)
	case "zfp":
		return zfp.NewAccuracy(eps)
	}
	return nil, fmt.Errorf("unknown codec family %q", family)
}

// modelNamed returns the model core.DefaultCandidates labels label; the
// "direct" candidate's model is nil.
func modelNamed(label string) (Model, error) {
	for _, c := range core.DefaultCandidates() {
		if c.Label == label {
			return c.Model, nil
		}
	}
	return nil, fmt.Errorf("no candidate model %q", label)
}

// --- whole-pipeline calls ---

// compressField runs the Fig. 5 pipeline (model nil = direct) with codec
// for both the rep and the delta, on the default worker pool.
func compressField(ctx context.Context, f *Field, m Model, c Codec) (*Result, error) {
	return core.CompressCtx(ctx, f, core.Options{Model: m, DataCodec: c})
}

func decompressArchive(ctx context.Context, archive []byte) (*Field, error) {
	return core.DecompressCtx(ctx, archive)
}

func compressChunked(ctx context.Context, f *Field, c Codec, chunks, workers int) (*Result, error) {
	return core.CompressChunkedCtx(ctx, f, core.Options{DataCodec: c, Parallel: parallel.Config{Workers: workers}}, chunks)
}

func decompressChunked(ctx context.Context, archive []byte, workers int) (*Field, error) {
	return core.DecompressWithOptsCtx(ctx, archive, core.DecompressOpts{Parallel: parallel.Config{Workers: workers}})
}

// --- single layers, as the pipeline composes them ---

func reduceFit(m Model, f *Field) (*Rep, error) { return m.Reduce(f) }

func reconstruct(rep *Rep) (*Field, error) { return reduce.Reconstruct(rep) }

func codecCompress(ctx context.Context, c Codec, f *Field) ([]byte, error) {
	return compress.CompressCtx(ctx, c, f)
}

func codecDecompress(ctx context.Context, c Codec, b []byte) (*Field, error) {
	return compress.DecompressCtx(ctx, c, b)
}

// metaFlateLevel is the flate level core stores a rep's structural header
// with; the traced run checks the resulting length against
// Result.RepMetaBytes, so a change in core shows up as a failed check.
const metaFlateLevel = 6

func flateMeta(meta []byte) ([]byte, error) { return compress.FlateBytes(meta, metaFlateLevel) }

func inflateMeta(b []byte) ([]byte, error) { return compress.InflateBytes(b) }

func subtract(f, g *Field) (*Field, error) { return f.Sub(g) }

func addInto(f, g *Field) error { return f.AddInPlace(g) }

// --- observability ---

// setObservability switches the metrics registry and the tracer and
// returns a function that restores the previous state.
func setObservability(metrics, tracing bool) (restore func()) {
	prevM := obs.SetEnabled(metrics)
	prevT := trace.SetEnabled(tracing)
	return func() {
		obs.SetEnabled(prevM)
		trace.SetEnabled(prevT)
	}
}

// stageStat is one stage's accumulated stage.<name>.{ns_total,calls}.
type stageStat struct{ ns, calls int64 }

// stageTotals reads every stage counter pair from the metrics registry.
func stageTotals() map[string]stageStat {
	out := make(map[string]stageStat)
	for name, v := range obs.Snapshot().Counters {
		rest, ok := strings.CutPrefix(name, "stage.")
		if !ok {
			continue
		}
		if stage, ok := strings.CutSuffix(rest, ".ns_total"); ok {
			s := out[stage]
			s.ns = v
			out[stage] = s
		} else if stage, ok := strings.CutSuffix(rest, ".calls"); ok {
			s := out[stage]
			s.calls = v
			out[stage] = s
		}
	}
	return out
}

// startSpan opens a benchmark-side span; spans the library opens under the
// returned context nest beneath it.
func startSpan(ctx context.Context, name string) (context.Context, func()) {
	ctx, sp := trace.Start(ctx, name)
	return ctx, sp.End
}

func resetTraces() { trace.Reset() }

// retainedSpanNames counts the spans of every retained trace by name.
func retainedSpanNames() map[string]int {
	out := make(map[string]int)
	for _, t := range trace.Snapshot() {
		for _, s := range t.Spans {
			out[s.Name]++
		}
	}
	return out
}

func writeChromeTrace(w io.Writer) error { return trace.WriteChromeTrace(w, trace.Snapshot()) }

// --- lrmserve ---

// server is an in-process lrmserve on a loopback listener.
type server struct {
	url  string
	srv  *serve.Server
	errc chan error
}

// startServer builds the server as cmd/lrmserve does (default Config,
// which caches decoded responses), or with the response cache off.
func startServer(cache bool) (*server, error) {
	cfg := serve.Config{}
	if !cache {
		cfg.CacheBytes = -1
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: srv, errc: make(chan error, 1)}
	go func() { s.errc <- srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// serveCounters reads the server-side counters the serve workload reports:
// response-cache hits and misses, and requests refused for any reason.
func serveCounters() (hits, misses, rejected int64) {
	hits = obs.GetCounter("serve.cache.hits").Value()
	misses = obs.GetCounter("serve.cache.misses").Value()
	for _, n := range []string{"serve.rejected.admission", "serve.rejected.quota", "serve.rejected.draining"} {
		rejected += obs.GetCounter(n).Value()
	}
	return hits, misses, rejected
}
