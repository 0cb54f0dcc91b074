// Command lrmbench3 is the repository's benchmark (schema lrm-bench/3). It
// measures the paper's pipeline — direct and preconditioned compression,
// model selection — and the lrmserve HTTP service, end to end and layer by
// layer, on four workloads:
//
//	direct-sz     core.Compress/Decompress, no model, sz absolute bound
//	precond-zfp   {one-base, PCA, wavelet} x {Heat3d, Astro, Umbrella}, zfp accuracy
//	model-select  all seven core.DefaultCandidates per input, best ratio kept
//	serve-mixed   in-process lrmserve under open-loop Poisson load
//
// Every decode is checked against a declared absolute bound
// ε = 1e-4·(max − min) of its input. Run it from the repository root:
//
//	bash lrmbench3/run.sh --workload direct-sz --seed 1 --seconds 28 --trace 0
//	bash lrmbench3/run.sh -workload all -seed 1 -out r.json
//	bash lrmbench3/run.sh -compare -set 'base/*.json' -set 'new/*.json'
//
// Each metric is printed as "workload metric value unit"; the last line of
// standard output is a JSON object {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones, with
// -trace 1 the per-layer ones from the traced run. The exit code is
// non-zero when any operation failed, any decode broke its bound, or a
// self-check failed. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames is the order -workload all runs them in.
var workloadNames = []string{"direct-sz", "precond-zfp", "model-select", "serve-mixed"}

// multiFlag is a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return fmt.Sprint(*m) }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrmbench3", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	seed := fs.Int64("seed", 1, "input and schedule seed")
	seconds := fs.Int("seconds", 28, "measured seconds per workload")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	out := fs.String("out", "", "write the lrm-bench/3 report here")
	chrome := fs.String("chrome", "", "with -trace 1, write the retained traces as Chrome trace JSON here")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition: metric names, bounds and directions")
	compare := fs.Bool("compare", false, "compare two sets of lrm-bench/3 reports given with -set")
	var sets multiFlag
	fs.Var(&sets, "set", "with -compare, a glob of report files; give it twice (base, then new)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if len(sets) != 2 || *workload != "" {
			fmt.Fprintln(stderr, "usage: lrmbench3 -compare -set 'base/*.json' -set 'new/*.json'")
			return 2
		}
		return compareMain(sets[0], sets[1], *specPath, stdout, stderr)
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !contains(workloadNames, n) {
			fmt.Fprintf(stderr, "lrmbench3: unknown workload %q (want one of %v or all)\n", n, workloadNames)
			return 2
		}
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "lrmbench3: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if *chrome != "" && *traced != 1 {
		fmt.Fprintln(stderr, "lrmbench3: -chrome needs -trace 1")
		return 2
	}
	wanted, err := wantedMetrics(*specPath, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "lrmbench3: %v\n", err)
		return 2
	}

	// The load comes from this one process, using every CPU the machine has.
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep := report{Schema: schemaID, Seed: *seed, Seconds: float64(*seconds),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	d := time.Duration(*seconds) * time.Second
	code := 0
	for _, n := range names {
		var wr *workloadReport
		var err error
		if *traced == 1 {
			wr, err = runTraced(n, *seed, d)
		} else {
			wr, err = runWorkload(n, *seed, d)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lrmbench3: %s: %v\n", n, err)
			return 1
		}
		wr.finish(wanted)
		wr.writeLines(stdout)
		line, err := wr.resultLine()
		if err != nil {
			fmt.Fprintf(stderr, "lrmbench3: %s: %v\n", n, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !wr.Correct {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, *wr)
	}
	if *chrome != "" {
		if err := writeFile(*chrome, writeChromeTrace); err != nil {
			fmt.Fprintf(stderr, "lrmbench3: chrome trace: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			fmt.Fprintf(stderr, "lrmbench3: report: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload's end-to-end pass.
func runWorkload(name string, seed int64, d time.Duration) (*workloadReport, error) {
	if name == "serve-mixed" {
		return runServeMixed(seed, d)
	}
	return runLibrary(libraryWorkloads[name], seed, d)
}

// wantedMetrics returns the metric names a run must report: those a valid
// BENCHMARK.json lists, or the built-in catalog when there is no file.
func wantedMetrics(specPath string, traced bool) ([]string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	spec, err := loadSpec(specPath)
	if errors.Is(err, os.ErrNotExist) {
		return metricNames(defs), nil
	}
	if err != nil {
		return nil, err
	}
	if err := validateSpec(spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	layers, err := loadLayerMap()
	if err != nil {
		return nil, err
	}
	if err := validateLayerMap(spec, layers); err != nil {
		return nil, err
	}
	var names []string
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

// writeFile writes path through fn, creating its directory.
func writeFile(path string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
