package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"
)

// libraryWorkload is a closed loop over library calls: one caller issues
// one operation at a time, the way a simulation's output step waits on its
// compressor.
//
// Each cycle runs every (input, model) pair once, so a workload's call
// times form one cluster per pair. The pair counts (9, 15 and 35) put the
// median and the 95th percentile inside a cluster rather than on the gap
// between two, where they would swing with the two clusters' extremes.
type libraryWorkload struct {
	name   string
	family string // codec family for the rep and the delta
	specs  []datasetSpec
	models []string // candidate labels; "direct" is no model
	// selectBest makes one operation try every model on an input and keep
	// the smallest archive (model selection); otherwise each (input, model)
	// pair is its own operation.
	selectBest bool
}

var libraryWorkloads = map[string]libraryWorkload{
	"direct-sz": {
		name: "direct-sz", family: "sz",
		specs:  []datasetSpec{{"Heat3d", 64, 5}, {"Astro", 64, 4}},
		models: []string{"direct"},
	},
	"precond-zfp": {
		name: "precond-zfp", family: "zfp",
		specs:  []datasetSpec{{"Heat3d", 64, 2}, {"Astro", 64, 2}, {"Umbrella", 1960, 1}},
		models: []string{"one-base", "pca", "wavelet"},
	},
	"model-select": {
		name: "model-select", family: "sz",
		specs:      []datasetSpec{{"Heat3d", 40, 2}, {"Astro", 40, 2}, {"Umbrella", 720, 1}},
		models:     []string{"direct", "one-base", "multi-base", "duomodel", "pca", "svd", "wavelet"},
		selectBest: true,
	},
}

// setupReps is how many times a run repeats its set-up; it reports the
// median.
const setupReps = 5

// libOp is one operation: an input and the models it is compressed with.
type libOp struct {
	in     int
	models []Model
	labels []string
}

// libState is a library workload with its inputs generated.
type libState struct {
	inputs []input
	codecs []Codec // per input
	ops    []libOp
	gen    time.Duration
}

func prepareLibrary(w libraryWorkload, rng *rand.Rand) (*libState, error) {
	inputs, gen, err := loadInputs(rng, w.specs...)
	if err != nil {
		return nil, err
	}
	st := &libState{inputs: inputs, gen: gen}
	models := make([]Model, len(w.models))
	for i, label := range w.models {
		if label != "direct" {
			if models[i], err = modelNamed(label); err != nil {
				return nil, err
			}
		}
	}
	for i, in := range inputs {
		c, err := newCodec(w.family, in.eps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		st.codecs = append(st.codecs, c)
		if w.selectBest {
			st.ops = append(st.ops, libOp{in: i, models: models, labels: w.models})
			continue
		}
		for j := range models {
			st.ops = append(st.ops, libOp{in: i, models: models[j : j+1], labels: w.models[j : j+1]})
		}
	}
	return st, nil
}

// libSamples collects per-call timings of the measured loop.
type libSamples struct {
	compMs, decompMs       []float64
	compBytes, decompBytes float64 // raw bytes in, raw bytes out
	rawBytes, archiveBytes float64 // for the ratio: per operation
	worstErr               float64
}

// runOp executes one operation: for every model, compress, decompress and
// check the bound. With rec nil nothing is recorded except failures.
func (st *libState) runOp(ctx context.Context, op libOp, codec Codec, rep *workloadReport, rec *libSamples) {
	in := st.inputs[op.in]
	raw := float64(8 * len(in.f.Data))
	best := math.Inf(1)
	for j, m := range op.models {
		rep.Attempted++
		t0 := time.Now()
		res, err := compressField(ctx, in.f, m, codec)
		t1 := time.Now()
		if err != nil {
			rep.fail("%s %s compress: %v", in.name, op.labels[j], err)
			continue
		}
		rep.Attempted++
		g, err := decompressArchive(ctx, res.Archive)
		t2 := time.Now()
		if err != nil {
			rep.fail("%s %s decompress: %v", in.name, op.labels[j], err)
			continue
		}
		e, ok := in.errOverBound(g)
		if !ok {
			rep.fail("%s %s: max error %.6g x eps breaks the bound", in.name, op.labels[j], e)
		}
		if rec == nil {
			continue
		}
		rec.worstErr = math.Max(rec.worstErr, e)
		rec.compMs = append(rec.compMs, t1.Sub(t0).Seconds()*1e3)
		rec.decompMs = append(rec.decompMs, t2.Sub(t1).Seconds()*1e3)
		rec.compBytes += raw
		rec.decompBytes += raw
		best = math.Min(best, float64(len(res.Archive)))
	}
	if rec != nil && !math.IsInf(best, 1) {
		rec.rawBytes += raw
		rec.archiveBytes += best
	}
}

// freshSetup returns the process to a cold-ish state between set-up
// repetitions: garbage is collected (which empties the library's
// sync.Pool arenas) and freed memory goes back to the OS, so the next
// operation pays for refilling them.
func freshSetup() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runLibrary runs a library workload for at least d, ending on a whole
// cycle over its operations so that every input gets the same number of
// samples. The seed chooses the inputs and each cycle's operation order.
func runLibrary(w libraryWorkload, seed int64, d time.Duration) (*workloadReport, error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := prepareLibrary(w, rng)
	if err != nil {
		return nil, err
	}
	rep := newWorkloadReport(w.name, false)
	ctx := context.Background()
	for _, in := range st.inputs {
		rep.Inputs = append(rep.Inputs, in.fingerprint())
	}
	rep.Extra["gen_s"] = st.gen.Seconds()

	// Set-up: from a cold-ish heap, build the first operation's codec and
	// run that operation to completion.
	var setups []float64
	first := st.ops[0]
	for r := 0; r < setupReps; r++ {
		freshSetup()
		t0 := time.Now()
		codec, err := newCodec(w.family, st.inputs[first.in].eps)
		if err != nil {
			return nil, err
		}
		st.runOp(ctx, first, codec, rep, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s", len(setups))

	var rec libSamples
	runtime.GC()
	heap := startHeapSampler()
	a0 := allocBytes()
	start := time.Now()
	cycles := 0
	for time.Since(start) < d || cycles == 0 {
		for _, i := range rng.Perm(len(st.ops)) {
			op := st.ops[i]
			st.runOp(ctx, op, st.codecs[op.in], rep, &rec)
		}
		cycles++
	}
	wall := time.Since(start)
	allocs := allocBytes() - a0
	peak := heap.stop()

	rep.Extra["cycles"] = float64(cycles)
	rep.Extra["wall_s"] = wall.Seconds()
	rep.Extra["err_over_bound"] = rec.worstErr
	rep.setPercentile("compress_p50_ms", rec.compMs, 50)
	rep.setPercentile("decompress_p50_ms", rec.decompMs, 50)
	all := append(append([]float64(nil), rec.compMs...), rec.decompMs...)
	rep.setTail("compress_p95_ms", rec.compMs, 95)
	rep.setTail("decompress_p95_ms", rec.decompMs, 95)
	rep.setTail("request_p99_ms", all, 99)
	compS, decompS := sum(rec.compMs)/1e3, sum(rec.decompMs)/1e3
	rep.set("compress_mb_s", rec.compBytes/1e6/compS, "MB/s", len(rec.compMs))
	rep.set("decompress_mb_s", rec.decompBytes/1e6/decompS, "MB/s", len(rec.decompMs))
	rep.set("capacity_rps", float64(len(all))/(compS+decompS), "1/s", len(all))
	rep.set("ratio", rec.rawBytes/rec.archiveBytes, "x", 0)
	rep.set("alloc_mb_per_raw_mb", allocs/(rec.compBytes+rec.decompBytes), "MB/MB", 0)
	rep.set("live_heap_max_mb", peak/(1<<20), "MiB", 0)
	return rep, nil
}
