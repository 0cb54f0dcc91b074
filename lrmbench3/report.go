package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

const schemaID = "lrm-bench/3"

// metricValue is one reported number. N is the sample count behind a
// percentile or median (0 where the value is not a sample statistic).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// workloadReport is one workload's outcome in one run.
type workloadReport struct {
	Name      string   `json:"name"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Invalid gives the reasons a run, though correct, did not measure what
	// it meant to (the load generator fell behind); -compare skips it.
	Invalid []string               `json:"invalid,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	// Extra holds what the run measured besides its metrics: the decode
	// error against the bound, generation time, cycle counts and, for
	// serve-mixed, the load generator's validity numbers.
	Extra  map[string]float64 `json:"extra"`
	Inputs []fingerprint      `json:"inputs"`
}

// report is the lrm-bench/3 artifact written by -out.
type report struct {
	Schema     string           `json:"schema"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	GoMaxProcs int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	GoVersion  string           `json:"go_version"`
	Workloads  []workloadReport `json:"workloads"`
}

// maxProblems caps the failure messages kept per workload; the counts are
// exact regardless.
const maxProblems = 8

func newWorkloadReport(name string, traced bool) *workloadReport {
	return &workloadReport{Name: name, Traced: traced,
		Metrics: map[string]metricValue{}, Extra: map[string]float64{}}
}

// fail counts one failed operation and keeps its message.
func (r *workloadReport) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

// problem records a check that failed without being an operation.
func (r *workloadReport) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// invalid marks the run as not a measurement of the system.
func (r *workloadReport) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *workloadReport) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit, N: n}
}

// setPercentile records the p-th percentile of xs, or a problem when xs has
// too few samples beyond it.
func (r *workloadReport) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	r.set(name, v, "ms", len(xs))
}

// setTail records the p-th percentile of xs as an extra, or nothing when xs
// has too few samples beyond it. Tails are reported but carry no bound: on a
// 2-vCPU VM sharing its host, runs of the same code moved p95 and p99 by
// 20-130% while medians moved by 10%.
func (r *workloadReport) setTail(name string, xs []float64, p float64) {
	if v, err := percentile(xs, p); err == nil {
		r.Extra[name] = v
	}
}

// finish checks that every wanted metric is present and finite, then sets
// Correct. wanted lists the metric names the run promised.
func (r *workloadReport) finish(wanted []string) {
	for _, name := range wanted {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			r.problem("metric %s missing", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.problem("metric %s is %v", name, m.Value)
			delete(r.Metrics, name)
		}
	}
	for name := range r.Metrics {
		if !contains(wanted, name) {
			delete(r.Metrics, name)
		}
	}
	r.Correct = r.Failed == 0 && len(r.Problems) == 0 && r.Attempted > 0
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// writeLines prints every metric as "workload metric value unit [n=N]",
// then the extras and any problems.
func (r *workloadReport) writeLines(w io.Writer) {
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf(" n=%d", m.N)
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", r.Name, name, m.Value, m.Unit, n)
	}
	for _, name := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "%s extra.%s %.6g\n", r.Name, name, r.Extra[name])
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Name, p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintf(w, "%s INVALID %s\n", r.Name, p)
	}
}

// resultLine is the one-line JSON summary printed as the last line of
// standard output.
func (r *workloadReport) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
