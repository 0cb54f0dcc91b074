package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

func TestBenchmarkJSONIsValid(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateSpec(spec); err != nil {
		t.Fatal(err)
	}
	m, err := loadLayerMap()
	if err != nil {
		t.Fatal(err)
	}
	if err := validateLayerMap(spec, m); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the program must agree on every workload and metric,
// with the same units, in the same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// validSpec is a small spec that passes validation; each case below breaks
// one rule.
func validSpec() *benchSpec {
	b := 0.1
	return &benchSpec{
		Command: []string{"bash", "b/run.sh"}, Paths: []string{"b"}, RunSeconds: 10,
		Workloads: []specEntry{{"w1", "one"}, {"w2", "two"}},
		EndToEnd:  []specMetric{{"setup_s", "s", "lower", &b}, {"lat_ms", "ms", "lower", &b}},
		PerLayer:  []specMetric{{"layer.x_ms", "ms", "lower", nil}},
	}
}

func TestValidateSpecRejects(t *testing.T) {
	if err := validateSpec(validSpec()); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	big := 0.3
	many := func(n int, prefix string, bound *float64) []specMetric {
		var out []specMetric
		for i := 0; i < n; i++ {
			out = append(out, specMetric{fmt.Sprintf("%s%d", prefix, i), "ms", "lower", bound})
		}
		return out
	}
	for name, mutate := range map[string]func(*benchSpec){
		"bad workload name": func(s *benchSpec) { s.Workloads[0].Name = "w 1" },
		"duplicate name":    func(s *benchSpec) { s.Workloads[1].Name = "w1" },
		"one workload":      func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"nine workloads": func(s *benchSpec) {
			for i := 0; i < 7; i++ {
				s.Workloads = append(s.Workloads, specEntry{fmt.Sprintf("x%d", i), "why"})
			}
		},
		"two-line why":    func(s *benchSpec) { s.Workloads[0].Why = "a\nb" },
		"17 end-to-end":   func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd[:1], many(16, "e", s.EndToEnd[0].Bound)...) },
		"129 per-layer":   func(s *benchSpec) { s.PerLayer = many(129, "l", nil) },
		"bound too large": func(s *benchSpec) { s.EndToEnd[1].Bound = &big },
		"no bound":        func(s *benchSpec) { s.EndToEnd[1].Bound = nil },
		"layer bound":     func(s *benchSpec) { s.PerLayer[0].Bound = &big },
		"no setup_s":      func(s *benchSpec) { s.EndToEnd[0].Name = "boot_s" },
		"bad unit":        func(s *benchSpec) { s.EndToEnd[1].Unit = "m s" },
		"bad better":      func(s *benchSpec) { s.EndToEnd[1].Better = "less" },
		"absolute path":   func(s *benchSpec) { s.Paths[0] = "/b" },
		"escaping arg":    func(s *benchSpec) { s.Command[1] = "../b/run.sh" },
		"run_seconds 61":  func(s *benchSpec) { s.RunSeconds = 61 },
	} {
		s := validSpec()
		mutate(s)
		if err := validateSpec(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateLayerMapRejects(t *testing.T) {
	parse := func(js string) []layerEntry {
		var m []layerEntry
		if err := json.Unmarshal([]byte(js), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	const ok = `[{"metric": "layer.x_ms", "layer": "x", "moves": [{"metric": "lat_ms", "workloads": ["w1"]}], "flat": ["w2"]}]`
	if err := validateLayerMap(validSpec(), parse(ok)); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	for name, js := range map[string]string{
		"unknown layer metric":   `[{"metric": "layer.y_ms", "layer": "x", "moves": [{"metric": "lat_ms", "workloads": ["w1"]}]}]`,
		"unmapped layer metric":  `[]`,
		"unknown moved metric":   `[{"metric": "layer.x_ms", "layer": "x", "moves": [{"metric": "tput", "workloads": ["w1"]}]}]`,
		"unknown moved workload": `[{"metric": "layer.x_ms", "layer": "x", "moves": [{"metric": "lat_ms", "workloads": ["w9"]}]}]`,
		"unknown flat workload":  `[{"metric": "layer.x_ms", "layer": "x", "moves": [{"metric": "lat_ms", "workloads": ["w1"]}], "flat": ["w9"]}]`,
		"moves nothing":          `[{"metric": "layer.x_ms", "layer": "x", "moves": []}]`,
	} {
		if err := validateLayerMap(validSpec(), parse(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
