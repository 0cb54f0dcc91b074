// Command lrmbench measures the throughput and allocation profile of the
// repository's codecs and emits the result as JSON — the artifact behind
// the BENCH_<n>.json perf gate.
//
// Usage:
//
//	lrmbench [-out BENCH.json] [-iters N] [-baseline old.json] [-stats]
//	         [-trace trace.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	         [-debug-addr :8080] [-profile-top]
//	         [-history hist.json] [-dash dash.html]
//	lrmbench -compare [-tolerance 0.25] old.json new.json
//	lrmbench -serve-load [-serve-url URL] [-serve-clients N]
//	         [-serve-duration 5s] [-serve-p99 LIMIT]
//
// Each benchmark compresses (and decompresses) a Heat3d field at two
// problem sizes, per codec, at worker counts 1 and 4, plus the chunked
// container path. ns_op is the best of -iters runs (the conventional
// noise-resistant statistic); b_op and allocs_op are per-run heap deltas.
// When -baseline points at a previous lrmbench JSON, matching benchmarks
// gain baseline_ns_op and speedup_vs_baseline so regressions and wins are
// visible in the artifact itself. With -stats the internal/obs registry is
// enabled and every cell carries a per-stage breakdown (wall time, calls,
// bytes in/out) of the pipeline stages it exercised. -cpuprofile and
// -memprofile write pprof profiles of the whole run; -debug-addr serves
// /metrics, /debug/vars and /debug/pprof live while the run is in flight.
// -profile-top instead CPU-profiles each cell separately and embeds the
// top-10 cumulative frames (function, cum ns, cum %) in that cell's JSON,
// so a regression flagged by -compare comes with its own hot-path
// attribution; it is mutually exclusive with -cpuprofile.
//
// -serve-load turns lrmbench into a load generator for lrmserve: a mixed
// compress/decompress request stream from -serve-clients concurrent
// clients for -serve-duration, reported as JSON with status counts and
// latency percentiles. The run fails (exit 1) on any 5xx response, any
// transport error, or a p99 above -serve-p99 — the CI serving smoke gate.
// With no -serve-url it stands up an in-process loopback server, so the
// smoke test needs no separate process.
//
// -trace runs one deterministic traced pass over the full core pipeline
// (single-field and chunked, medium size) after the benchmarks and writes
// the retained traces as Chrome trace_event JSON — load it at
// https://ui.perfetto.dev or chrome://tracing. -compare mode runs no
// benchmarks at all: it joins two lrmbench JSON reports cell by cell and
// exits non-zero when any cell's throughput regressed by more than
// -tolerance (default 0.25, i.e. 25%).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/obs/pprofparse"
	"lrm/internal/obs/profile"
	"lrm/internal/obs/trace"
	"lrm/internal/obs/tsdb"
	"lrm/internal/parallel"
	"lrm/internal/sim/heat3d"
)

// logger stamps trace_id/span_id onto every record whose context carries a
// live span, so diagnostics emitted inside the traced pass can be joined
// against the exported trace file by grepping the ID.
var logger = slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))

// fatal reports err through the correlated logger and exits.
func fatal(ctx context.Context, msg string, args ...any) {
	logger.ErrorContext(ctx, msg, args...)
	os.Exit(1)
}

// StageStat is one pipeline stage's accumulated contribution to a cell,
// distilled from the internal/obs stage metric bundle (-stats only).
type StageStat struct {
	NsTotal  int64 `json:"ns_total"`
	Calls    int64 `json:"calls"`
	BytesIn  int64 `json:"bytes_in,omitempty"`
	BytesOut int64 `json:"bytes_out,omitempty"`
	Items    int64 `json:"items,omitempty"`
}

// Benchmark is one measured (codec, size, direction, workers) cell.
type Benchmark struct {
	Name              string               `json:"name"` // e.g. "zfp/medium/compress/workers=4"
	Workers           int                  `json:"workers"`
	GoMaxProcs        int                  `json:"gomaxprocs"`
	NsOp              int64                `json:"ns_op"`
	BOp               int64                `json:"b_op"`
	AllocsOp          int64                `json:"allocs_op"`
	MBs               float64              `json:"mb_s"` // uncompressed MB processed per second
	BaselineNsOp      int64                `json:"baseline_ns_op,omitempty"`
	SpeedupVsBaseline float64              `json:"speedup_vs_baseline,omitempty"`
	Stages            map[string]StageStat `json:"stages,omitempty"`
	ProfileTop        []pprofparse.Frame   `json:"profile_top,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Schema     string      `json:"schema"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Iters      int         `json:"iters"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

const schemaID = "lrm-bench/2"

func main() {
	out := flag.String("out", "", "write JSON here (default stdout)")
	iters := flag.Int("iters", 5, "measurement repetitions; best-of is reported")
	baselinePath := flag.String("baseline", "", "previous lrmbench JSON to compute speedups against")
	stats := flag.Bool("stats", false, "enable the obs registry and emit per-stage breakdowns")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run here")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit here")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	tracePath := flag.String("trace", "", "write a Chrome trace of one traced pipeline pass here")
	profileTop := flag.Bool("profile-top", false, "CPU-profile each cell and attach its top-10 cumulative frames to the JSON")
	compare := flag.Bool("compare", false, "compare two lrmbench JSON reports (old.json new.json) and fail on regression")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional throughput regression in -compare mode")
	serveLoad := flag.Bool("serve-load", false, "run the lrmserve load generator instead of the codec benchmarks")
	serveURL := flag.String("serve-url", "", "lrmserve base URL for -serve-load (empty = in-process loopback server)")
	serveClients := flag.Int("serve-clients", 4, "concurrent clients for -serve-load")
	serveDuration := flag.Duration("serve-duration", 5*time.Second, "wall time for -serve-load")
	serveP99 := flag.Duration("serve-p99", 0, "fail -serve-load when request p99 exceeds this (0 = no latency gate)")
	historyPath := flag.String("history", "", "sample the obs registry during the run and write the telemetry history JSON here")
	dashPath := flag.String("dash", "", "write the rendered telemetry dashboard HTML here at exit")
	profCont := flag.Bool("profile-continuous", false, "run the continuous in-process profiler (short CPU windows + heap deltas) during the benchmarks")
	profileJSON := flag.String("profile-json", "", "write the continuous profiler's aggregated JSON here at exit (implies -profile-continuous)")
	flamePath := flag.String("flame", "", "write the continuous profiler's flame graph SVG here at exit (implies -profile-continuous)")
	flag.Parse()

	if *serveLoad {
		os.Exit(serveLoadMain(*serveURL, *serveClients, *serveDuration, *serveP99))
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: lrmbench -compare [-tolerance F] old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1), *tolerance))
	}

	var baseline *Report
	if *baselinePath != "" {
		b, err := readReport(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: baseline: %v\n", err)
			os.Exit(1)
		}
		baseline = b
	}

	if *stats || *debugAddr != "" {
		obs.SetEnabled(true)
	}
	// The continuous profiler and the one-shot profiling modes all want the
	// runtime's single CPU profiler; refuse contradictory flag sets up
	// front with a clear message instead of letting whichever started first
	// win and the loser write a silent empty profile.
	continuous := *profCont || *profileJSON != "" || *flamePath != ""
	if err := profileModeConflict(*cpuProfile, *profileTop, continuous); err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: %v\n", err)
		os.Exit(2)
	}
	var prof *profile.Profiler
	if continuous {
		obs.SetEnabled(true)
		prof = profile.New(profile.Config{Interval: 2 * time.Second, Window: 500 * time.Millisecond})
		prof.Mount() // /debug/profile and /debug/flame join -debug-addr's mux
		prof.Start()
	}
	if *debugAddr != "" {
		_, stopDebug, err := obs.StartDebug(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: debug server: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := stopDebug(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "lrmbench: debug server shutdown: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			if err := obs.WriteHeapProfile(path); err != nil {
				fmt.Fprintf(os.Stderr, "lrmbench: memprofile: %v\n", err)
			}
		}()
	}

	// -history/-dash sample the obs registry on a fast cadence for the
	// whole run and dump the retained series (JSON) and rendered dashboard
	// (HTML) at exit. Both imply metrics: an unsampled registry would dump
	// empty series.
	var hist *tsdb.Store
	if *historyPath != "" || *dashPath != "" {
		obs.SetEnabled(true)
		hist = tsdb.New(tsdb.Config{Interval: 100 * time.Millisecond})
		hist.Start()
	}

	rep := run(*iters, baseline, *stats, *profileTop)

	if *tracePath != "" {
		if err := runTraced(*tracePath); err != nil {
			fatal(context.Background(), "lrmbench: trace", "err", err)
		}
	}

	if hist != nil {
		hist.Stop()
		if err := hist.DumpFiles(*historyPath, *dashPath); err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: history: %v\n", err)
			os.Exit(1)
		}
	}
	if prof != nil {
		prof.Stop() // flushes the in-flight window before the dump
		if err := prof.DumpFiles(*profileJSON, *flamePath); err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: profile: %v\n", err)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: %v\n", err)
		os.Exit(1)
	}
}

// profileModeConflict reports why the requested profiling modes cannot
// coexist. The runtime owns a single CPU profiler, so the whole-run
// -cpuprofile, the per-cell -profile-top, and the continuous profiler's
// sampled windows are pairwise exclusive — whichever started first would
// win and the loser would write a silent empty profile.
func profileModeConflict(cpuProfile string, profileTop, continuous bool) error {
	switch {
	case profileTop && cpuProfile != "":
		return errors.New("-profile-top and -cpuprofile are mutually exclusive: both need the runtime's single CPU profiler")
	case continuous && cpuProfile != "":
		return errors.New("-profile-continuous (or -profile-json/-flame) and -cpuprofile are mutually exclusive: the runtime allows one CPU profile at a time")
	case continuous && profileTop:
		return errors.New("-profile-continuous (or -profile-json/-flame) and -profile-top are mutually exclusive: the runtime allows one CPU profile at a time")
	}
	return nil
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// benchField builds the input for one problem size. Small matches the
// repository's bench_test.go field; medium is the BENCH gate's target.
func benchField(size string) *grid.Field {
	switch size {
	case "small":
		cfg := heat3d.Default(32)
		cfg.Steps = 100
		return heat3d.Solve(cfg)
	case "medium":
		cfg := heat3d.Default(64)
		cfg.Steps = 40
		return heat3d.Solve(cfg)
	}
	panic("unknown size " + size)
}

func run(iters int, baseline *Report, stats, profTop bool) *Report {
	if iters < 1 {
		iters = 1
	}
	// fpc's kernel is serial, so it has no workers=4 cells.
	codecs := []struct {
		family  string
		codec   compress.Codec
		workers []int
	}{
		{"zfp", zfp.MustNew(16), []int{1, 4}},
		{"sz", sz.MustNew(sz.Abs, 1e-5), []int{1, 4}},
		{"fpc", fpc.MustNew(12), []int{1}},
	}
	ctx := context.Background()
	rep := &Report{Schema: schemaID, GoMaxProcs: runtime.GOMAXPROCS(0), Iters: iters}
	for _, size := range []string{"small", "medium"} {
		f := benchField(size)
		for _, c := range codecs {
			for _, w := range c.workers {
				cfg := parallel.Config{Workers: w}
				enc, err := c.codec.Compress(ctx, f, cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "lrmbench: %s/%s: %v\n", c.family, size, err)
					os.Exit(1)
				}
				prefix := fmt.Sprintf("%s/%s", c.family, size)
				suffix := fmt.Sprintf("workers=%d", w)
				rep.Benchmarks = append(rep.Benchmarks,
					measure(fmt.Sprintf("%s/compress/%s", prefix, suffix), iters, 8*f.Len(), w, stats, profTop, func() error {
						_, err := c.codec.Compress(ctx, f, cfg)
						return err
					}),
					measure(fmt.Sprintf("%s/decompress/%s", prefix, suffix), iters, 8*f.Len(), w, stats, profTop, func() error {
						_, err := c.codec.Decompress(ctx, enc, cfg)
						return err
					}),
				)
			}
		}

		// Chunked container path: N independent slabs through the full
		// core pipeline, the Table IV per-rank pattern.
		const chunks = 4
		for _, w := range []int{1, 4} {
			opts := core.Options{
				DataCodec: zfp.MustNew(16),
				Parallel:  parallel.Config{Workers: w},
			}
			res, err := core.CompressChunked(f, opts, chunks)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lrmbench: chunked/%s: %v\n", size, err)
				os.Exit(1)
			}
			dopts := core.DecompressOpts{Parallel: parallel.Config{Workers: w}}
			prefix := fmt.Sprintf("chunked/%s", size)
			suffix := fmt.Sprintf("workers=%d", w)
			rep.Benchmarks = append(rep.Benchmarks,
				measure(fmt.Sprintf("%s/compress/%s", prefix, suffix), iters, 8*f.Len(), w, stats, profTop, func() error {
					_, err := core.CompressChunked(f, opts, chunks)
					return err
				}),
				measure(fmt.Sprintf("%s/decompress/%s", prefix, suffix), iters, 8*f.Len(), w, stats, profTop, func() error {
					_, err := core.DecompressWithOpts(res.Archive, dopts)
					return err
				}),
			)
		}
	}
	if baseline != nil {
		attach(rep, baseline)
	}
	return rep
}

// measure runs fn iters times and reports best-of wall time plus mean heap
// growth, the same statistics `go test -bench -benchmem` prints. With stats
// the obs registry is reset before the first iteration and the cell carries
// the stage totals accumulated across all iters. With profTop the whole
// cell (all iters) runs under the CPU profiler and the cell carries its
// top-10 cumulative frames; short cells may sample nothing and carry none.
func measure(name string, iters, rawBytes, workers int, stats, profTop bool, fn func() error) Benchmark {
	if stats {
		obs.Reset()
	}
	var profBuf bytes.Buffer
	if profTop {
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: %s: profile-top: %v\n", name, err)
			os.Exit(1)
		}
	}
	var best time.Duration = 1<<63 - 1
	var mallocs, bytes uint64
	for i := 0; i < iters; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := fn()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if elapsed < best {
			best = elapsed
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	mbs := 0.0
	if best > 0 {
		mbs = float64(rawBytes) / 1e6 / best.Seconds()
	}
	b := Benchmark{
		Name:       name,
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NsOp:       best.Nanoseconds(),
		BOp:        int64(bytes / uint64(iters)),
		AllocsOp:   int64(mallocs / uint64(iters)),
		MBs:        mbs,
	}
	if stats {
		b.Stages = stageBreakdown(obs.Snapshot())
	}
	if profTop {
		pprof.StopCPUProfile()
		frames, err := pprofparse.TopCumFrames(profBuf.Bytes(), 10)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lrmbench: %s: profile-top: %v\n", name, err)
			os.Exit(1)
		}
		b.ProfileTop = frames
	}
	return b
}

// stageBreakdown folds the registry's stage.<name>.* counters into one
// StageStat per stage, dropping stages the cell never touched.
func stageBreakdown(snap *obs.Snap) map[string]StageStat {
	out := make(map[string]StageStat)
	for name, v := range snap.Counters {
		rest, ok := strings.CutPrefix(name, "stage.")
		if !ok {
			continue
		}
		i := strings.LastIndex(rest, ".")
		if i < 0 {
			continue
		}
		stage, field := rest[:i], rest[i+1:]
		s := out[stage]
		switch field {
		case "ns_total":
			s.NsTotal = v
		case "calls":
			s.Calls = v
		case "bytes_in":
			s.BytesIn = v
		case "bytes_out":
			s.BytesOut = v
		case "items":
			s.Items = v
		}
		out[stage] = s
	}
	for stage, s := range out {
		if s.Calls == 0 && s.NsTotal == 0 {
			delete(out, stage)
		}
	}
	return out
}

// attach joins baseline numbers onto matching benchmark names. A
// workers=N cell with no exact match falls back to the baseline's
// workers=1 cell for the same codec/size/direction: a baseline tree that
// predates the worker knob only has serial numbers, and its serial run IS
// the baseline for every worker count.
func attach(rep, baseline *Report) {
	base := make(map[string]int64, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b.NsOp
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		ns, ok := base[b.Name]
		if !ok {
			if j := strings.LastIndex(b.Name, "/workers="); j >= 0 {
				ns, ok = base[b.Name[:j]+"/workers=1"]
			}
		}
		if ok && ns > 0 && b.NsOp > 0 {
			b.BaselineNsOp = ns
			b.SpeedupVsBaseline = float64(ns) / float64(b.NsOp)
		}
	}
}

// runTraced executes one deterministic traced pass over the core pipeline —
// the single-field path and the chunked container, both on the medium field
// with a worker pool — and writes every retained trace as Chrome
// trace_event JSON. Before writing it self-checks that a core.compress root
// span and a chunked container trace were actually captured, so a silently
// disabled trace layer fails loudly instead of emitting an empty file.
func runTraced(path string) error {
	wasMetrics, wasTracing := obs.Enabled(), trace.Enabled()
	obs.SetEnabled(true) // exemplars need the metrics bit
	trace.SetEnabled(true)
	defer func() {
		obs.SetEnabled(wasMetrics)
		trace.SetEnabled(wasTracing)
	}()
	trace.Reset()

	ctx := context.Background()
	f := benchField("medium")
	opts := core.Options{
		DataCodec: zfp.MustNew(16),
		Parallel:  parallel.Config{Workers: 4},
	}

	res, err := core.CompressCtx(ctx, f, opts)
	if err != nil {
		return fmt.Errorf("traced compress: %w", err)
	}
	if _, err := core.DecompressCtx(ctx, res.Archive); err != nil {
		return fmt.Errorf("traced decompress: %w", err)
	}
	cres, err := core.CompressChunkedCtx(ctx, f, opts, 4)
	if err != nil {
		return fmt.Errorf("traced chunked compress: %w", err)
	}
	dopts := core.DecompressOpts{Parallel: parallel.Config{Workers: 4}}
	if _, err := core.DecompressWithOptsCtx(ctx, cres.Archive, dopts); err != nil {
		return fmt.Errorf("traced chunked decompress: %w", err)
	}

	traces := trace.Snapshot()
	var haveCompress, haveChunked bool
	for _, t := range traces {
		switch t.Root {
		case "core.compress":
			haveCompress = true
		case "core.compress_chunked":
			haveChunked = true
		}
	}
	if !haveCompress || !haveChunked {
		return fmt.Errorf("traced pass retained %d traces but is missing a core.compress or core.compress_chunked root (tracing disabled?)", len(traces))
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, traces); err != nil {
		return err
	}
	if !json.Valid(buf.Bytes()) {
		return errors.New("trace export produced invalid JSON")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	logger.InfoContext(ctx, "lrmbench: wrote Chrome trace",
		"path", path, "traces", len(traces), "bytes", buf.Len())
	return nil
}

// compareMain joins two lrmbench reports cell by cell and returns the
// process exit code: 0 when every matched cell's throughput is within
// tolerance, 1 when any cell regressed. A cell regresses when its new
// wall time exceeds old_ns/(1-tolerance) — i.e. throughput dropped by more
// than the tolerated fraction. Cells present in only one report are
// listed but never fail the comparison (codec or size sets may differ
// across trees).
func compareMain(oldPath, newPath string, tolerance float64) int {
	if tolerance < 0 || tolerance >= 1 {
		fmt.Fprintf(os.Stderr, "lrmbench: -tolerance %v out of range [0,1)\n", tolerance)
		return 2
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: compare: %v\n", err)
		return 2
	}
	newRep, err := readReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrmbench: compare: %v\n", err)
		return 2
	}
	base := make(map[string]int64, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		base[b.Name] = b.NsOp
	}
	matched, skipped, failed := 0, 0, 0
	for _, b := range newRep.Benchmarks {
		oldNs, ok := base[b.Name]
		if !ok || oldNs <= 0 || b.NsOp <= 0 {
			skipped++
			continue
		}
		delete(base, b.Name)
		matched++
		limit := float64(oldNs) / (1 - tolerance)
		ratio := float64(b.NsOp) / float64(oldNs)
		status := "ok"
		if float64(b.NsOp) > limit {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%-44s old %12d ns  new %12d ns  x%.2f  %s\n",
			b.Name, oldNs, b.NsOp, ratio, status)
	}
	leftover := make([]string, 0, len(base))
	for name := range base {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		skipped++
		fmt.Printf("%-44s only in %s\n", name, oldPath)
	}
	fmt.Printf("lrmbench compare: %d matched, %d skipped, %d regressed (tolerance %.0f%%)\n",
		matched, skipped, failed, 100*tolerance)
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "lrmbench: compare: no cells matched between the two reports")
		return 2
	}
	if failed > 0 {
		return 1
	}
	return 0
}
