package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// compareMain compares two sets of lrm-bench/3 reports, base and new, the
// same code or two commits run several times each. For every (workload,
// metric) it prints each side's median and quartiles and a verdict:
//
//	ok          the new median is not worse than the base median by more
//	            than the metric's bound
//	worse       it is
//	unresolved  the base runs spread (IQR / median) more than the bound, so
//	            the comparison cannot tell, unless every new run is better
//	            than every base run
//	info        a per-layer metric, which has no bound
//
// ratio and err_over_bound also get "drift" whenever their medians differ
// at all: a speed-up that changes what is stored or how close decodes come
// to the bound is never silent. The exit code is 1 when any metric is
// worse, 2 on unreadable input, else 0.
func compareMain(basePattern, newPattern, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "lrmbench3: compare: %v\n", err)
		return 2
	}
	base, err := loadReportSet(basePattern)
	if err == nil {
		var cur *sampleSet
		if cur, err = loadReportSet(newPattern); err == nil {
			return compareSets(spec, base, cur, stdout)
		}
	}
	fmt.Fprintf(stderr, "lrmbench3: compare: %v\n", err)
	return 2
}

// sampleSet holds, per workload and metric, one value per report, and how
// many workload runs it skipped as invalid.
type sampleSet struct {
	values  map[string]map[string][]float64
	skipped int
}

func (s *sampleSet) add(workload, metric string, v float64) {
	if s.values[workload] == nil {
		s.values[workload] = map[string][]float64{}
	}
	s.values[workload][metric] = append(s.values[workload][metric], v)
}

// loadReportSet reads every report matching pattern.
func loadReportSet(pattern string) (*sampleSet, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no reports match %q", pattern)
	}
	set := &sampleSet{values: map[string]map[string][]float64{}}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != schemaID {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaID)
		}
		for _, w := range r.Workloads {
			if len(w.Invalid) > 0 {
				set.skipped++
				continue
			}
			for name, m := range w.Metrics {
				set.add(w.Name, name, m.Value)
			}
			if e, ok := w.Extra["err_over_bound"]; ok {
				set.add(w.Name, "err_over_bound", e)
			}
		}
	}
	return set, nil
}

// verdict judges one (workload, metric) pair; bound 0 means none.
func verdict(base, cur []float64, bound float64, higherBetter bool) string {
	if bound == 0 {
		return "info"
	}
	bm, cm := median(base), median(cur)
	change := (cm - bm) / math.Abs(bm)
	if higherBetter {
		change = -change
	}
	if q1, q3, err := quartiles(base); err == nil && (q3-q1)/math.Abs(bm) > bound {
		if allBetter(base, cur, higherBetter) {
			return "ok (every new run better)"
		}
		return "unresolved"
	}
	if change > bound {
		return "worse"
	}
	return "ok"
}

func allBetter(base, cur []float64, higherBetter bool) bool {
	for _, b := range base {
		for _, c := range cur {
			if (higherBetter && c <= b) || (!higherBetter && c >= b) {
				return false
			}
		}
	}
	return true
}

func compareSets(spec *benchSpec, base, cur *sampleSet, stdout io.Writer) int {
	type row struct {
		name, better string
		bound        float64
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, *m.Bound})
	}
	rows = append(rows, row{"err_over_bound", "lower", 0})
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Better, 0})
	}
	worse, compared := 0, 0
	for _, w := range spec.Workloads {
		for _, r := range rows {
			b, c := base.values[w.Name][r.name], cur.values[w.Name][r.name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			compared++
			v := verdict(b, c, r.bound, r.better == "higher")
			if v == "worse" {
				worse++
			}
			drift := r.name == "ratio" || r.name == "err_over_bound"
			if drift && median(b) != median(c) {
				v += " drift"
			}
			fmt.Fprintf(stdout, "%-13s %-34s base %s  new %s  %+8.2f%%  %s\n", w.Name, r.name,
				describe(b), describe(c), 100*(median(c)-median(b))/math.Abs(median(b)), v)
		}
	}
	fmt.Fprintf(stdout, "lrmbench3 compare: %d metrics compared, %d worse; skipped %d base and %d new runs reported invalid\n",
		compared, worse, base.skipped, cur.skipped)
	if compared == 0 {
		return 2
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// describe renders a sample's median and quartiles.
func describe(xs []float64) string {
	q1, q3, err := quartiles(xs)
	if err != nil {
		q1, q3 = xs[0], xs[0]
	}
	return fmt.Sprintf("%10.4g [%10.4g %10.4g] n=%-2d", median(xs), q1, q3, len(xs))
}
