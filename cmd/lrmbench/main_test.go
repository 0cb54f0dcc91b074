package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"testing"

	"lrm/internal/obs"
)

// TestRunProducesFullMatrix runs the benchmark harness at one iteration
// (the CI smoke configuration) and checks the report shape: every expected
// benchmark cell present, sane numbers, valid JSON round trip.
func TestRunProducesFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not short")
	}
	prev := obs.SetEnabled(true)
	defer func() {
		obs.SetEnabled(prev)
		obs.Reset()
	}()
	rep := run(1, nil, true, false)
	if rep.Schema != schemaID {
		t.Fatalf("schema %q", rep.Schema)
	}
	names := make(map[string]bool)
	stages := make(map[string]map[string]StageStat)
	for _, b := range rep.Benchmarks {
		names[b.Name] = true
		stages[b.Name] = b.Stages
		if b.NsOp <= 0 {
			t.Errorf("%s: ns_op %d", b.Name, b.NsOp)
		}
		if b.MBs <= 0 {
			t.Errorf("%s: mb_s %v", b.Name, b.MBs)
		}
		if b.AllocsOp < 0 || b.BOp < 0 {
			t.Errorf("%s: negative mem stats", b.Name)
		}
		if b.Workers < 1 {
			t.Errorf("%s: workers %d not recorded", b.Name, b.Workers)
		}
		if b.GoMaxProcs < 1 {
			t.Errorf("%s: gomaxprocs %d not recorded", b.Name, b.GoMaxProcs)
		}
	}
	// The cell set is exactly BENCH_7's 28 cells: every codec accepts a
	// parallel config, so only zfp, sz and chunked get workers=4 cells.
	want := make(map[string]bool)
	for _, size := range []string{"small", "medium"} {
		for _, dir := range []string{"compress", "decompress"} {
			for _, cell := range []string{"zfp/%s/workers=1", "zfp/%s/workers=4", "sz/%s/workers=1", "sz/%s/workers=4",
				"fpc/%s/workers=1", "chunked/%s/workers=1", "chunked/%s/workers=4"} {
				want[fmt.Sprintf(cell, size+"/"+dir)] = true
			}
		}
	}
	if len(want) != 28 {
		t.Fatalf("expected cell list has %d names, want 28", len(want))
	}
	if !maps.Equal(names, want) {
		for name := range want {
			if !names[name] {
				t.Errorf("missing benchmark %q", name)
			}
		}
		for name := range names {
			if !want[name] {
				t.Errorf("unexpected benchmark %q", name)
			}
		}
	}
	// -stats must surface the per-codec stage breakdown with nonzero time
	// and byte attribution for the stages each cell exercises.
	for cell, want := range map[string]string{
		"sz/medium/compress/workers=1":      "sz.quantize",
		"zfp/medium/compress/workers=1":     "zfp.plane_code",
		"fpc/medium/compress/workers=1":     "fpc.compress",
		"chunked/medium/compress/workers=1": "core.chunk_compress",
	} {
		st, ok := stages[cell][want]
		if !ok {
			t.Errorf("%s: stage %q missing from breakdown %v", cell, want, stages[cell])
			continue
		}
		if st.Calls < 1 {
			t.Errorf("%s: stage %q has no calls: %+v", cell, want, st)
		}
	}
	if st := stages["sz/medium/compress/workers=1"]["sz.compress"]; st.BytesIn <= 0 || st.BytesOut <= 0 {
		t.Errorf("sz.compress stage lacks byte attribution: %+v", st)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if len(round.Benchmarks) != len(rep.Benchmarks) {
		t.Fatalf("JSON round trip lost benchmarks")
	}
}

// TestAttachBaseline checks the speedup join logic.
func TestAttachBaseline(t *testing.T) {
	rep := &Report{Benchmarks: []Benchmark{
		{Name: "zfp/medium/compress/workers=1", NsOp: 500},
		{Name: "zfp/medium/compress/workers=4", NsOp: 250},
		{Name: "new/bench", NsOp: 100},
	}}
	base := &Report{Benchmarks: []Benchmark{
		{Name: "zfp/medium/compress/workers=1", NsOp: 1000},
		{Name: "gone/bench", NsOp: 9},
	}}
	attach(rep, base)
	b := rep.Benchmarks[0]
	if b.BaselineNsOp != 1000 || b.SpeedupVsBaseline != 2.0 {
		t.Fatalf("bad join: %+v", b)
	}
	// workers=4 has no exact baseline; it falls back to the serial cell.
	w4 := rep.Benchmarks[1]
	if w4.BaselineNsOp != 1000 || w4.SpeedupVsBaseline != 4.0 {
		t.Fatalf("workers=4 fallback join failed: %+v", w4)
	}
	if rep.Benchmarks[2].BaselineNsOp != 0 {
		t.Fatalf("unmatched benchmark gained a baseline: %+v", rep.Benchmarks[2])
	}
	if !strings.HasPrefix(rep.Benchmarks[0].Name, "zfp/") {
		t.Fatal("name mangled")
	}
}

// TestMeasureProfileTop runs a real cell under -profile-top and checks the
// profile attributes CPU to the busy function.
func TestMeasureProfileTop(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled spin is not short")
	}
	sink := 0.0
	b := measure("spin", 2, 8, 1, false, true, func() error {
		for i := 0; i < 8_000_000; i++ {
			sink += float64(i % 7)
		}
		return nil
	})
	_ = sink
	if b.NsOp <= 0 {
		t.Fatalf("ns_op %d", b.NsOp)
	}
	if len(b.ProfileTop) == 0 {
		t.Fatal("profiled cell carried no frames")
	}
	if len(b.ProfileTop) > 10 {
		t.Fatalf("more than 10 frames: %d", len(b.ProfileTop))
	}
	for i := 1; i < len(b.ProfileTop); i++ {
		if b.ProfileTop[i].CumNs > b.ProfileTop[i-1].CumNs {
			t.Fatalf("frames not sorted by cum_ns: %+v", b.ProfileTop)
		}
	}
}

// TestProfileModeConflict pins the pairwise exclusivity of the three
// profiling modes: every conflicting pair is refused with a message naming
// both flags, and each mode alone is allowed.
func TestProfileModeConflict(t *testing.T) {
	cases := []struct {
		cpuProfile string
		profileTop bool
		continuous bool
		wantErr    bool
	}{
		{"", false, false, false},
		{"cpu.pprof", false, false, false},
		{"", true, false, false},
		{"", false, true, false},
		{"cpu.pprof", true, false, true},
		{"cpu.pprof", false, true, true},
		{"", true, true, true},
	}
	for _, c := range cases {
		err := profileModeConflict(c.cpuProfile, c.profileTop, c.continuous)
		if (err != nil) != c.wantErr {
			t.Errorf("profileModeConflict(%q, %v, %v) = %v, want error %v",
				c.cpuProfile, c.profileTop, c.continuous, err, c.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "mutually exclusive") {
			t.Errorf("conflict error does not name the exclusivity: %v", err)
		}
	}
}
