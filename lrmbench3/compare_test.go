package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		name         string
		base, cur    []float64
		bound        float64
		higherBetter bool
		want         string
	}{
		{"same", steady, steady, 0.1, false, "ok"},
		{"within bound", steady, []float64{10.5, 10.6, 10.4, 10.5, 10.5}, 0.1, false, "ok"},
		{"slower", steady, []float64{12, 12.1, 11.9, 12, 12}, 0.1, false, "worse"},
		{"faster", steady, []float64{8, 8.1, 7.9, 8, 8}, 0.1, false, "ok"},
		{"lower throughput", steady, []float64{8, 8.1, 7.9, 8, 8}, 0.1, true, "worse"},
		{"noisy base", []float64{5, 15, 10, 7, 13}, []float64{12, 12.1, 11.9, 12, 12}, 0.1, false, "unresolved"},
		{"noisy base, all better", []float64{5, 15, 10, 7, 13}, []float64{4, 4.1, 3.9, 4, 4}, 0.1, false, "ok (every new run better)"},
		{"no bound", steady, []float64{20}, 0, false, "info"},
	} {
		if got := verdict(c.base, c.cur, c.bound, c.higherBetter); got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

// writeReports writes one lrm-bench/3 report per value into dir.
func writeReports(t *testing.T, dir string, p50, ratio []float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range p50 {
		w := *newWorkloadReport("direct-sz", false)
		w.set("compress_p50_ms", p50[i], "ms", 100)
		w.set("ratio", ratio[i], "x", 0)
		w.Extra["err_over_bound"] = 0.99
		data, err := json.Marshal(report{Schema: schemaID, Workloads: []workloadReport{w}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	ratio := []float64{20, 20, 20, 20, 20}
	writeReports(t, filepath.Join(dir, "base"), steady, ratio)
	writeReports(t, filepath.Join(dir, "same"), steady, ratio)
	writeReports(t, filepath.Join(dir, "slow"), []float64{13, 13, 13, 13, 13}, []float64{21, 21, 21, 21, 21})

	compare := func(set string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := compareMain(filepath.Join(dir, "base", "*.json"), filepath.Join(dir, set, "*.json"), specFile, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	if code, out := compare("same"); code != 0 || strings.Contains(out, "drift") {
		t.Errorf("same sets: exit %d\n%s", code, out)
	}
	code, out := compare("slow")
	if code != 1 {
		t.Errorf("slower set: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"compress_p50_ms", "worse", "ratio", "drift"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code, _ := compare("missing"); code != 2 {
		t.Errorf("missing set: exit %d, want 2", code)
	}
}
