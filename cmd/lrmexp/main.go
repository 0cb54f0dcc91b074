// Command lrmexp runs the paper-reproduction experiments and prints the
// corresponding table or figure data.
//
// Usage:
//
//	lrmexp [-size small|medium|large] [-snapshots N] [-history hist.json]
//	       [-dash dash.html] <experiment-id>|all|list
//
// Experiment ids match the paper's artifacts: table2, fig1, fig3, fig4,
// fig6, fig7, fig8, fig9, fig10, fig11, fig12, table4.
package main

import (
	"context"
	"flag"
	"fmt"
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
	size := flag.String("size", "small", "dataset scale: small, medium, or large")
	snapshots := flag.Int("snapshots", 0, "snapshot count per application (0 = default; the paper uses 20)")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of the formatted table")
	statsOut := flag.String("stats", "", "enable the obs registry and write its Prometheus snapshot here at exit")
	traceOut := flag.String("trace", "", "enable tracing and write retained traces as Chrome trace JSON here at exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run here")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit here")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	historyPath := flag.String("history", "", "sample the obs registry during the run and write the telemetry history JSON here")
	dashPath := flag.String("dash", "", "write the rendered telemetry dashboard HTML here at exit")
	flag.Usage = usage
	flag.Parse()

	if *statsOut != "" || *debugAddr != "" || *traceOut != "" || *historyPath != "" || *dashPath != "" {
		obs.SetEnabled(true)
	}
	if *historyPath != "" || *dashPath != "" {
		hist := tsdb.New(tsdb.Config{Interval: 100 * time.Millisecond})
		hist.Mount() // /debug/history and /debug/dash join -debug-addr's mux
		hist.Start()
		hp, dp := *historyPath, *dashPath
		defer func() {
			hist.Stop()
			if err := hist.DumpFiles(hp, dp); err != nil {
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
			os.Exit(1)
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
			os.Exit(1)
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
			if err := writeStats(path); err != nil {
				logger.Error("lrmexp: stats", "err", err)
			}
		}()
	}

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	id := flag.Arg(0)

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
		os.Exit(2)
	}

	switch id {
	case "list":
		for _, eid := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", eid, experiments.Describe(eid))
		}
		return
	case "all":
		for _, eid := range experiments.IDs() {
			if err := runOne(eid, cfg, *csvOut); err != nil {
				logger.Error("lrmexp: experiment failed", "id", eid, "err", err)
				os.Exit(1)
			}
		}
		return
	default:
		if err := runOne(id, cfg, *csvOut); err != nil {
			logger.Error("lrmexp: experiment failed", "id", id, "err", err)
			os.Exit(1)
		}
	}
}

// writeTraces dumps the trace ring as Chrome trace_event JSON.
func writeTraces(path string) error {
	traces := trace.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logger.Info("lrmexp: wrote Chrome trace", "path", path, "traces", len(traces))
	return nil
}

// writeStats dumps the obs registry as Prometheus text exposition.
func writeStats(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteProm(f); err != nil {
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
  -debug-addr addr   serve /metrics, /debug/vars and /debug/pprof while running
  -history file      sample the metrics during the run; write the history JSON at exit
  -dash file         write the telemetry dashboard HTML at exit
  -csv               emit CSV instead of the formatted table

Examples:
  lrmexp list
  lrmexp fig3
  lrmexp -size medium -snapshots 20 fig6
  lrmexp all
`)
}
