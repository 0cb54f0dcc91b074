// Command lrmexp runs the paper-reproduction experiments and prints the
// corresponding table or figure data.
//
// Usage:
//
//	lrmexp [-size small|medium|large] [-snapshots N] [-history hist.json]
//	       <experiment-id>|all|list
//
// Experiment ids match the paper's artifacts: table2, fig1, fig3, fig4,
// fig6, fig7, fig8, fig9, fig10, fig11, fig12, table4.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"lrm/internal/dataset"
	"lrm/internal/experiments"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/obs/tsdb"
)

// logger replaces the old ad-hoc stderr prints. It routes through
// trace.LogHandler so any future context-carrying call sites gain
// trace_id/span_id correlation for free.
var logger = slog.New(trace.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's testable body: it returns the exit code instead of calling
// os.Exit, so the outputs deferred here (-stats, -history, -trace,
// -cpuprofile, -memprofile) are written on every exit path, a failed
// experiment included.
func run(args []string) int {
	fs := flag.NewFlagSet("lrmexp", flag.ContinueOnError)
	size := fs.String("size", "small", "dataset scale: small, medium, or large")
	snapshots := fs.Int("snapshots", 0, "snapshot count per application (0 = default; the paper uses 20)")
	csvOut := fs.Bool("csv", false, "emit machine-readable CSV instead of the formatted table")
	statsOut := fs.String("stats", "", "enable the obs registry and write its Prometheus snapshot here at exit")
	traceOut := fs.String("trace", "", "enable tracing and write retained traces as Chrome trace JSON here at exit")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run here")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit here")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/traces and /debug/pprof (and /debug/history under -history) on this address")
	historyPath := fs.String("history", "", "sample the obs registry during the run and write the telemetry history JSON here")
	fs.Usage = usage
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *statsOut != "" || *debugAddr != "" || *traceOut != "" || *historyPath != "" {
		obs.SetEnabled(true)
	}
	if *historyPath != "" {
		hist := tsdb.New(tsdb.Config{Interval: 100 * time.Millisecond})
		hist.Mount() // /debug/history joins -debug-addr's mux
		hist.Start()
		path := *historyPath
		defer func() {
			hist.Stop()
			err := writeFile(path, func(w io.Writer) error { return hist.WriteJSON(w, tsdb.Query{}) })
			if err != nil {
				logger.Error("lrmexp: history", "err", err)
			}
		}()
	}
	if *traceOut != "" {
		trace.SetEnabled(true)
		path := *traceOut
		defer func() {
			if err := writeTraces(path); err != nil {
				logger.Error("lrmexp: trace", "err", err)
			}
		}()
	}
	if *debugAddr != "" {
		_, stopDebug, err := obs.StartDebug(*debugAddr)
		if err != nil {
			logger.Error("lrmexp: debug server", "err", err)
			return 1
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := stopDebug(ctx); err != nil {
				logger.Error("lrmexp: debug server shutdown", "err", err)
			}
		}()
	}
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			logger.Error("lrmexp: cpuprofile", "err", err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			if err := obs.WriteHeapProfile(path); err != nil {
				logger.Error("lrmexp: memprofile", "err", err)
			}
		}()
	}
	if *statsOut != "" {
		path := *statsOut
		defer func() {
			if err := writeFile(path, obs.WriteProm); err != nil {
				logger.Error("lrmexp: stats", "err", err)
			}
		}()
	}

	if fs.NArg() != 1 {
		usage()
		return 2
	}
	id := fs.Arg(0)

	cfg := experiments.Config{Snapshots: *snapshots}
	switch *size {
	case "small":
		cfg.Size = dataset.Small
	case "medium":
		cfg.Size = dataset.Medium
	case "large":
		cfg.Size = dataset.Large
	default:
		logger.Error("lrmexp: unknown size", "size", *size)
		return 2
	}

	ids := []string{id}
	switch id {
	case "list":
		for _, eid := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", eid, experiments.Describe(eid))
		}
		return 0
	case "all":
		ids = experiments.IDs()
	}
	for _, eid := range ids {
		if err := runOne(eid, cfg, *csvOut); err != nil {
			logger.Error("lrmexp: experiment failed", "id", eid, "err", err)
			return 1
		}
	}
	return 0
}

// writeTraces dumps the trace ring as Chrome trace_event JSON.
func writeTraces(path string) error {
	traces := trace.Snapshot()
	if err := writeFile(path, func(w io.Writer) error { return trace.WriteChromeTrace(w, traces) }); err != nil {
		return err
	}
	logger.Info("lrmexp: wrote Chrome trace", "path", path, "traces", len(traces))
	return nil
}

// writeFile creates path, fills it with write and closes it, reporting the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(id string, cfg experiments.Config, csvOut bool) error {
	start := time.Now()
	res, err := experiments.Run(id, cfg)
	if err != nil {
		return err
	}
	if csvOut {
		c, ok := res.(experiments.CSVer)
		if !ok {
			return fmt.Errorf("experiment %s has no CSV form", id)
		}
		fmt.Print(c.CSV())
		return nil
	}
	fmt.Printf("=== %s (%s) ===\n", id, experiments.Describe(id))
	fmt.Println(res.Render())
	fmt.Printf("[%s completed in %.2fs]\n\n", id, time.Since(start).Seconds())
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: lrmexp [flags] <experiment-id>|all|list

Reproduces the tables and figures of "Identifying Latent Reduced Models to
Precondition Lossy Compression" (IPDPS 2019).

Flags:
  -size string       dataset scale: small, medium, large (default "small")
  -snapshots int     outputs per application (default 5; the paper uses 20)
  -stats file        enable pipeline metrics; write a Prometheus snapshot at exit
  -trace file        enable tracing; write retained traces as Chrome trace JSON at exit
  -cpuprofile file   write a CPU profile of the whole run
  -memprofile file   write a heap profile at exit
  -debug-addr addr   serve /metrics, /debug/traces and /debug/pprof while running
                     (and /debug/history under -history)
  -history file      sample the metrics during the run; write the history JSON at exit
  -csv               emit CSV instead of the formatted table

Examples:
  lrmexp list
  lrmexp fig3
  lrmexp -size medium -snapshots 20 fig6
  lrmexp all
`)
}
