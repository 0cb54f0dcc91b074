package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// benchSpec is BENCHMARK.json: how to run the benchmark, its workloads, and
// each metric's unit, direction and (end-to-end only) regression bound.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specMetric is one metric. Bound is the share of the base median by which
// the metric may get worse; per-layer metrics have none.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validateSpec checks BENCHMARK.json's shape: name and unit syntax, unique
// names, 2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics,
// bounds in (0, 0.25], and a setup_s metric.
func validateSpec(s *benchSpec) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if len(s.Command) == 0 || len(s.Command) > 32 {
		bad("command has %d strings, want 1-32", len(s.Command))
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			bad("command element %q is not a short repo-relative string", c)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > 16 {
		bad("paths has %d entries, want 1-16", len(s.Paths))
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		bad("run_seconds %d out of 1-60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2-8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1-16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1-128", n)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			bad("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			bad("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range s.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	checkMetric := func(kind string, m specMetric, bounded bool) {
		checkName(kind, m.Name)
		if !unitRE.MatchString(m.Unit) {
			bad("%s %s: unit %q does not match %s", kind, m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			bad("%s %s: better is %q, want lower or higher", kind, m.Name, m.Better)
		}
		switch {
		case bounded && m.Bound == nil:
			bad("%s %s: no bound", kind, m.Name)
		case bounded && (*m.Bound <= 0 || *m.Bound > 0.25):
			bad("%s %s: bound %v out of (0, 0.25]", kind, m.Name, *m.Bound)
		case !bounded && m.Bound != nil:
			bad("%s %s: per-layer metrics take no bound", kind, m.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		checkMetric("end_to_end", m, true)
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		bad(`end_to_end needs setup_s with unit "s" and better "lower"`)
	}
	for _, m := range s.PerLayer {
		checkMetric("per_layer", m, false)
	}
	return errors.Join(errs...)
}

// layersJSON maps each per-layer metric to the end-to-end metrics it should
// move, on which workloads, and the workloads where it should stay flat.
//
//go:embed layers.json
var layersJSON []byte

type layerEntry struct {
	Metric string      `json:"metric"`
	Layer  string      `json:"layer"`
	Moves  []layerMove `json:"moves"`
	Flat   []string    `json:"flat"`
}

type layerMove struct {
	Metric    string   `json:"metric"`
	Workloads []string `json:"workloads"`
}

func loadLayerMap() ([]layerEntry, error) {
	dec := json.NewDecoder(bytes.NewReader(layersJSON))
	dec.DisallowUnknownFields()
	var m []layerEntry
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return m, nil
}

// validateLayerMap checks that the map covers exactly the spec's per-layer
// metrics and that every move names an existing end-to-end metric and
// workload.
func validateLayerMap(s *benchSpec, m []layerEntry) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	workloads, e2e, layer := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range s.Workloads {
		workloads[w.Name] = true
	}
	for _, x := range s.EndToEnd {
		e2e[x.Name] = true
	}
	for _, x := range s.PerLayer {
		layer[x.Name] = true
	}
	mapped := map[string]bool{}
	for _, e := range m {
		if !layer[e.Metric] {
			bad("layers.json: %s is not a per_layer metric", e.Metric)
		}
		if mapped[e.Metric] {
			bad("layers.json: %s mapped twice", e.Metric)
		}
		mapped[e.Metric] = true
		if len(e.Moves) == 0 {
			bad("layers.json: %s moves nothing", e.Metric)
		}
		for _, mv := range e.Moves {
			if !e2e[mv.Metric] {
				bad("layers.json: %s moves unknown end-to-end metric %q", e.Metric, mv.Metric)
			}
			if len(mv.Workloads) == 0 {
				bad("layers.json: %s -> %s names no workload", e.Metric, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !workloads[w] {
					bad("layers.json: %s -> %s names unknown workload %q", e.Metric, mv.Metric, w)
				}
			}
		}
		for _, w := range e.Flat {
			if !workloads[w] {
				bad("layers.json: %s flat on unknown workload %q", e.Metric, w)
			}
		}
	}
	for name := range layer {
		if !mapped[name] {
			bad("layers.json: per_layer metric %s has no entry", name)
		}
	}
	return errors.Join(errs...)
}
