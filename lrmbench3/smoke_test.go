package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// Every workload, run for BENCHMARK.json's run length (serve-mixed's load
// generator lag p99 needs that many samples: at a few seconds it has fewer
// than ten beyond it and is refused), reports every end-to-end metric, fails
// nothing and keeps every decode within its bound.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for its full length")
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	d := time.Duration(spec.RunSeconds) * time.Second
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(name, 1, d)
			if err != nil {
				t.Fatal(err)
			}
			rep.finish(metricNames(endToEnd))
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("correct=%v failed=%d problems=%v", rep.Correct, rep.Failed, rep.Problems)
			}
			if e := rep.Extra["err_over_bound"]; !(e > 0 && e <= 1) {
				t.Errorf("err_over_bound %v, want in (0, 1]", e)
			}
			for _, m := range endToEnd {
				if v := rep.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.name, v)
				}
			}
		})
	}
}

// The traced run passes its self-checks on every workload, and the command
// line prints the per-layer metrics as the result line's JSON object.
func TestTracedRunSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", name, "-seed", "1", "-seconds", "1", "-trace", "1", "-spec", specFile}, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
			}
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("result %+v", res)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				var v struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				}
				if err := json.Unmarshal(res.Metrics[m.name], &v); err != nil || v.Unit != m.unit {
					t.Errorf("%s: %s (%v), want unit %s", m.name, res.Metrics[m.name], err, m.unit)
				}
			}
		})
	}
}

// The seed chooses the inputs: the same seed gives the same inputs, and
// seeds 1 and 2 give different ones.
func TestSeedChoosesInputs(t *testing.T) {
	prints := func(name string, seed int64) string {
		p, err := planFor(name, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, in := range p.inputs {
			out = append(out, in.fingerprint().FNV64)
		}
		return strings.Join(out, ",")
	}
	for _, name := range workloadNames {
		one, again, two := prints(name, 1), prints(name, 1), prints(name, 2)
		if one != again {
			t.Errorf("%s: seed 1 gave different inputs on two calls", name)
		}
		if one == two {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

func TestUnknownWorkloadIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result: %q", stdout.String())
	}
}
