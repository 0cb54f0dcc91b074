package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"
)

// The traced run measures single layers. For every input of a workload it
//
//   - decomposes the Fig. 5 pipeline into the public calls core makes —
//     Model.Reduce, the rep's codec round trip on grid.FromData(rep.Values),
//     reduce.Reconstruct, Field.Sub plus the delta codec, and on the way
//     back the codec decodes and Field.AddInPlace — timing each call, and
//     times core.Compress/Decompress itself on the same input, so the part
//     of core's time no layer accounts for is a measured remainder;
//   - times both codec families directly on the input and reads the codec
//     stage shares from the library's stage.<name>.ns_total counters;
//   - times the chunked container at the default and at one worker, and the
//     same bodies through an in-process lrmserve;
//   - times the workload's own compress calls with tracing on and off.
//
// The models decomposed are the workload's own, or PCA where the workload
// runs none, so every layer is measured on every workload's inputs. Each
// call is wrapped in a benchmark-side span (bench.<layer>), so the library's
// spans nest under it in the Chrome trace.

// layerRec holds per-call samples keyed by metric, then by operation (an
// input and a model). A metric's value is the mean over operations of each
// operation's median, which keeps one slow input from deciding it.
type layerRec map[string]map[string][]float64

func (r layerRec) add(metric, key string, v float64) {
	if r[metric] == nil {
		r[metric] = map[string][]float64{}
	}
	r[metric][key] = append(r[metric][key], v)
}

func (r layerRec) value(metric string) (v float64, n int, ok bool) {
	byKey := r[metric]
	if len(byKey) == 0 {
		return 0, 0, false
	}
	for _, xs := range byKey {
		v += median(xs)
		n += len(xs)
	}
	return v / float64(len(byKey)), n, true
}

// keyedRatio is Σ num / Σ den accumulated per metric.
type keyedRatio map[string][2]float64

func (k keyedRatio) add(metric string, num, den float64) {
	v := k[metric]
	k[metric] = [2]float64{v[0] + num, v[1] + den}
}

// sequence times consecutive layer calls of one decomposed operation.
type sequence struct {
	ctx   context.Context
	start time.Time
	sum   time.Duration
	durs  map[string]time.Duration
}

func newSequence(ctx context.Context) *sequence {
	return &sequence{ctx: ctx, start: time.Now(), durs: map[string]time.Duration{}}
}

// layer times fn, wrapped in a bench.<name> span, and returns its error.
func (s *sequence) layer(name string, fn func(ctx context.Context) error) error {
	t0 := time.Now()
	ctx, end := startSpan(s.ctx, "bench."+name)
	err := fn(ctx)
	end()
	d := time.Since(t0)
	s.durs[name] += d
	s.sum += d
	return err
}

// gap is the share of the sequence's wall time its layer calls do not
// cover: the benchmark's own bookkeeping between calls.
func (s *sequence) gap() float64 {
	wall := time.Since(s.start)
	return float64(wall-s.sum) / float64(wall)
}

// maxGap is the largest median gap the traced run accepts: layer times must
// tile each decomposed operation, or they are not a breakdown of it. A
// single operation may be preempted between calls, so the check is on the
// median over all operations.
const maxGap = 0.01

// allocMB runs fn and returns the heap it allocated, in MB.
func allocMB(fn func() error) (float64, error) {
	a0 := allocBytes()
	err := fn()
	return (allocBytes() - a0) / 1e6, err
}

// tracedPlan is what a workload's traced run measures.
type tracedPlan struct {
	inputs []input
	family string
	models []string // decomposed
	main   []string // the workload's own compress calls ("chunked" for serve)
}

func planFor(name string, rng *rand.Rand) (*tracedPlan, error) {
	if name == "serve-mixed" {
		s, _ := newServeState(rng)
		return &tracedPlan{inputs: s.hotIn, family: "zfp", models: []string{"pca"}, main: []string{"chunked"}}, nil
	}
	w := libraryWorkloads[name]
	st, err := prepareLibrary(w, rng)
	if err != nil {
		return nil, err
	}
	p := &tracedPlan{inputs: st.inputs, family: w.family, main: w.models}
	for _, m := range w.models {
		if m != "direct" {
			p.models = append(p.models, m)
		}
	}
	if len(p.models) == 0 {
		p.models = []string{"pca"}
	}
	return p, nil
}

// traced carries one traced run's state.
type traced struct {
	ctx          context.Context
	plan         *tracedPlan
	rep          *workloadReport
	rec          layerRec
	shares       keyedRatio
	client       *http.Client
	url          string
	spansChecked bool
}

// chunksFor is lrmserve's default container split for a field.
func chunksFor(f *Field) int { return min(8, f.Dims[0]) }

func runTraced(name string, seed int64, d time.Duration) (*workloadReport, error) {
	restore := setObservability(true, true)
	defer restore()
	rng := rand.New(rand.NewSource(seed))
	plan, err := planFor(name, rng)
	if err != nil {
		return nil, err
	}
	t := &traced{ctx: context.Background(), plan: plan, rep: newWorkloadReport(name, true),
		rec: layerRec{}, shares: keyedRatio{}, client: newClient()}
	defer t.client.CloseIdleConnections()
	for _, in := range plan.inputs {
		t.rep.Inputs = append(t.rep.Inputs, in.fingerprint())
	}
	srv, err := startServer(false) // no response cache: every decode is timed
	if err != nil {
		return nil, err
	}
	t.url = srv.url
	resetTraces()

	gc0, cpu0 := gcCPUSeconds()
	start := time.Now()
	cycles := 0
	for time.Since(start) < d || cycles < 2 {
		for _, i := range rng.Perm(len(plan.inputs)) {
			if err := t.input(plan.inputs[i]); err != nil {
				t.rep.fail("%s: %v", plan.inputs[i].name, err)
			}
		}
		cycles++
	}
	gc1, cpu1 := gcCPUSeconds()
	if err := srv.stop(); err != nil {
		t.rep.problem("server shutdown: %v", err)
	}
	t.rep.Extra["cycles"] = float64(cycles)
	t.rep.Extra["wall_s"] = time.Since(start).Seconds()
	if cpu1 > cpu0 {
		t.rep.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0), "1", 0)
	}
	t.finish()
	return t.rep, nil
}

// input runs every traced measurement once on in.
func (t *traced) input(in input) error {
	codec, err := newCodec(t.plan.family, in.eps)
	if err != nil {
		return err
	}
	for _, label := range t.plan.models {
		m, err := modelNamed(label)
		if err != nil {
			return err
		}
		t.decompose(in, label, m, codec)
	}
	t.codecs(in)
	t.chunked(in)
	t.overhead(in, codec)
	return nil
}

// checkDecode counts an attempted decode and fails it when it breaks the
// input's bound.
func (t *traced) checkDecode(in input, what string, g *Field, err error) bool {
	t.rep.Attempted++
	if err != nil {
		t.rep.fail("%s %s: %v", in.name, what, err)
		return false
	}
	if e, ok := in.errOverBound(g); !ok {
		t.rep.fail("%s %s: max error %.6g x eps breaks the bound", in.name, what, e)
		return false
	}
	return true
}

// decompose times core's compress and decompress of in with model m, then
// the same work call by call, and checks that the two produce streams of
// the same sizes.
func (t *traced) decompose(in input, label string, m Model, codec Codec) {
	key := in.name + "/" + label
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }

	var (
		res          *Result
		coreC, coreD float64 // core's own compress and decompress, ms
	)
	if !t.spansChecked {
		resetTraces()
	}
	coreAlloc, err := allocMB(func() error {
		var err error
		t0 := time.Now()
		res, err = compressField(t.ctx, in.f, m, codec)
		coreC = ms(time.Since(t0))
		return err
	})
	t.rep.Attempted++
	if err != nil {
		t.rep.fail("%s core compress: %v", key, err)
		return
	}
	if !t.spansChecked {
		t.spansChecked = true
		names := retainedSpanNames()
		for _, want := range []string{"core.reduce", "core.rep_store", "core.delta"} {
			if names[want] == 0 {
				t.rep.problem("traced core compress with %s recorded no %s span", label, want)
			}
		}
	}
	t0 := time.Now()
	g, err := decompressArchive(t.ctx, res.Archive)
	coreD = ms(time.Since(t0))
	if !t.checkDecode(in, "core decompress", g, err) {
		return
	}
	t.rec.add("runtime.alloc_mb_per_op", key, coreAlloc)
	t.rec.add("core.compress_ms", key, coreC)
	t.rec.add("core.decompress_ms", key, coreD)

	// Compress, call by call.
	ctx, end := startSpan(t.ctx, "bench.compress")
	seq := newSequence(ctx)
	var (
		rep                 *Rep
		meta, vals, dstream []byte
		recon               *Field
		fitAlloc, dAlloc    float64
	)
	err = seq.layer("reduce.fit", func(context.Context) error {
		var err error
		fitAlloc, err = allocMB(func() error {
			var err error
			rep, err = reduceFit(m, in.f)
			return err
		})
		return err
	})
	if err == nil {
		err = seq.layer("core.meta_store", func(context.Context) error {
			var err error
			meta, err = flateMeta(rep.Meta)
			return err
		})
	}
	var stored Rep
	if err == nil {
		stored = *rep
		err = seq.layer("core.rep_store", func(ctx context.Context) error {
			if len(rep.Values) == 0 {
				return nil
			}
			vf, err := fieldFromData(rep.Values, len(rep.Values))
			if err != nil {
				return err
			}
			if vals, err = codecCompress(ctx, codec, vf); err != nil {
				return err
			}
			back, err := codecDecompress(ctx, codec, vals)
			if err != nil {
				return err
			}
			stored.Values = back.Data
			return nil
		})
	}
	if err == nil {
		err = seq.layer("reduce.reconstruct", func(context.Context) error {
			var err error
			recon, err = reconstruct(&stored)
			return err
		})
	}
	if err == nil {
		err = seq.layer("core.delta", func(ctx context.Context) error {
			var err error
			dAlloc, err = allocMB(func() error {
				delta, err := subtract(in.f, recon)
				if err != nil {
					return err
				}
				dstream, err = codecCompress(ctx, codec, delta)
				return err
			})
			return err
		})
	}
	t.rec.add("bench.gap_frac", key, seq.gap())
	end()
	t.rep.Attempted++
	if err != nil {
		t.rep.fail("%s decomposed compress: %v", key, err)
		return
	}
	if len(meta) != res.RepMetaBytes || len(vals) != res.RepValueBytes || len(dstream) != res.DeltaBytes {
		t.rep.fail("%s: decomposed streams are %d/%d/%d bytes (meta/rep/delta), core wrote %d/%d/%d",
			key, len(meta), len(vals), len(dstream), res.RepMetaBytes, res.RepValueBytes, res.DeltaBytes)
	}
	t.rec.add("reduce.fit_ms", key, ms(seq.durs["reduce.fit"]))
	t.rec.add("reduce.fit_frac", key, ms(seq.durs["reduce.fit"])/coreC)
	t.rec.add("reduce.fit_alloc_mb", key, fitAlloc)
	t.rec.add("reduce.rep_bytes", key, float64(res.RepMetaBytes+res.RepValueBytes))
	t.rec.add("core.rep_store_ms", key, ms(seq.durs["core.rep_store"]))
	t.rec.add("core.delta_ms", key, ms(seq.durs["core.delta"]))
	t.rec.add("core.delta_alloc_mb", key, dAlloc)
	t.rec.add("core.meta_store_ms", key, ms(seq.durs["core.meta_store"]))
	t.rec.add("core.compress_unattributed_frac", key, (coreC-ms(seq.sum))/coreC)

	// Decompress, call by call.
	ctx, end = startSpan(t.ctx, "bench.decompress")
	seq = newSequence(ctx)
	var back *Rep
	var delta *Field
	err = seq.layer("core.meta_load", func(context.Context) error {
		b, err := inflateMeta(meta)
		back = &Rep{Model: rep.Model, Dims: rep.Dims, Meta: b}
		return err
	})
	if err == nil {
		err = seq.layer("core.rep_load", func(ctx context.Context) error {
			if len(vals) == 0 {
				return nil
			}
			vf, err := codecDecompress(ctx, codec, vals)
			if err == nil {
				back.Values = vf.Data
			}
			return err
		})
	}
	if err == nil {
		err = seq.layer("reduce.reconstruct", func(context.Context) error {
			var err error
			recon, err = reconstruct(back)
			return err
		})
	}
	if err == nil {
		err = seq.layer("core.delta_load", func(ctx context.Context) error {
			var err error
			delta, err = codecDecompress(ctx, codec, dstream)
			return err
		})
	}
	if err == nil {
		err = seq.layer("core.apply_delta", func(context.Context) error { return addInto(recon, delta) })
	}
	t.rec.add("bench.gap_frac", key, seq.gap())
	end()
	if !t.checkDecode(in, "decomposed decompress", recon, err) {
		return
	}
	t.rec.add("reduce.reconstruct_ms", key, ms(seq.durs["reduce.reconstruct"]))
	t.rec.add("core.apply_delta_ms", key, ms(seq.durs["core.apply_delta"]))
	t.rec.add("core.meta_load_ms", key, ms(seq.durs["core.meta_load"]))
	t.rec.add("core.rep_load_ms", key, ms(seq.durs["core.rep_load"]))
	t.rec.add("core.delta_load_ms", key, ms(seq.durs["core.delta_load"]))
	t.rec.add("core.decompress_unattributed_frac", key, (coreD-ms(seq.sum))/coreD)
}

// codecStages names, per family, the stage counters whose share of the
// codec's own span the traced run reports, by direction.
var codecStages = map[string][2][]string{
	"sz":  {{"sz.quantize", "sz.huffman", "sz.flate"}, {"sz.inflate", "sz.dequantize"}},
	"zfp": {{"zfp.transform", "zfp.plane_code"}, {"zfp.plane_decode", "zfp.inv_transform"}},
}

// codecs times both codec families directly on in and accumulates their
// stage counters.
func (t *traced) codecs(in input) {
	for _, fam := range []string{"sz", "zfp"} {
		c, err := newCodec(fam, in.eps)
		if err != nil {
			t.rep.fail("%s %s codec: %v", in.name, fam, err)
			continue
		}
		before := stageTotals()
		ctx, end := startSpan(t.ctx, "bench."+fam+".compress")
		t0 := time.Now()
		b, err := codecCompress(ctx, c, in.f)
		t1 := time.Now()
		end()
		t.rep.Attempted++
		if err != nil {
			t.rep.fail("%s %s compress: %v", in.name, fam, err)
			continue
		}
		ctx, end = startSpan(t.ctx, "bench."+fam+".decompress")
		t2 := time.Now()
		g, err := codecDecompress(ctx, c, b)
		t3 := time.Now()
		end()
		if !t.checkDecode(in, fam+" decompress", g, err) {
			continue
		}
		after := stageTotals()
		delta := func(stage string) float64 { return float64(after[stage].ns - before[stage].ns) }
		t.rec.add(fam+".compress_ms", in.name, t1.Sub(t0).Seconds()*1e3)
		t.rec.add(fam+".decompress_ms", in.name, t3.Sub(t2).Seconds()*1e3)
		t.shares.add(fam+".bits_per_value", 8*float64(len(b)), float64(len(in.f.Data)))
		stages := codecStages[fam]
		for _, s := range stages[0] {
			t.shares.add(s+"_frac", delta(s), delta(fam+".compress"))
		}
		for _, s := range stages[1] {
			t.shares.add(s+"_frac", delta(s), delta(fam+".decompress"))
		}
	}
}

// chunked times the chunked container on in: at the default worker count
// (with the per-chunk stage times and pool busy time), at one worker, and
// through lrmserve.
func (t *traced) chunked(in input) {
	c, err := newCodec("zfp", in.eps)
	if err != nil {
		t.rep.fail("%s chunked codec: %v", in.name, err)
		return
	}
	chunks := chunksFor(in.f)
	before := stageTotals()
	ctx, end := startSpan(t.ctx, "bench.chunked")
	t0 := time.Now()
	res, err := compressChunked(ctx, in.f, c, chunks, 0)
	t1 := time.Now()
	end()
	t.rep.Attempted++
	if err != nil {
		t.rep.fail("%s chunked compress: %v", in.name, err)
		return
	}
	ctx, end = startSpan(t.ctx, "bench.chunked_decode")
	t2 := time.Now()
	g, err := decompressChunked(ctx, res.Archive, 0)
	t3 := time.Now()
	end()
	if !t.checkDecode(in, "chunked decompress", g, err) {
		return
	}
	after := stageTotals()
	delta := func(stage string) stageStat {
		return stageStat{after[stage].ns - before[stage].ns, after[stage].calls - before[stage].calls}
	}
	if cc := delta("core.chunk_compress"); cc.calls > 0 {
		t.rec.add("core.chunk_compress_ms", in.name, float64(cc.ns)/float64(cc.calls)/1e6)
	}
	if cd := delta("core.chunk_decode"); cd.calls > 0 {
		t.rec.add("core.chunk_decode_ms", in.name, float64(cd.ns)/float64(cd.calls)/1e6)
	}
	wall := t3.Sub(t2) + t1.Sub(t0)
	t.shares.add("parallel.utilization", float64(delta("parallel.worker_busy").ns), float64(wall.Nanoseconds())*float64(runtime.GOMAXPROCS(0)))
	libC, libD := t1.Sub(t0).Seconds()*1e3, t3.Sub(t2).Seconds()*1e3
	t.rec.add("chunked_compress_ms", in.name, libC)
	t.rec.add("chunked_decompress_ms", in.name, libD)

	s0 := time.Now()
	t.rep.Attempted++
	if _, err := compressChunked(t.ctx, in.f, c, chunks, 1); err != nil {
		t.rep.fail("%s serial chunked compress: %v", in.name, err)
		return
	}
	t.rec.add("parallel.speedup", in.name, time.Since(s0).Seconds()*1e3/libC)

	// The same body through lrmserve (cache off): the difference is the cost
	// of HTTP, admission and the handler around the library call.
	h0 := time.Now()
	_, archive, err := post(t.client, compressURL(t.url, in), fieldBytes(in.f))
	h1 := time.Now()
	t.rep.Attempted++
	if err != nil {
		t.rep.fail("%s serve compress: %v", in.name, err)
		return
	}
	_, body, err := post(t.client, t.url+"/v1/decompress", archive)
	h2 := time.Now()
	if err == nil {
		g, err = fieldFromBytes(body, in.f.Dims)
	}
	if !t.checkDecode(in, "serve decompress", g, err) {
		return
	}
	t.rec.add("serve_compress_ms", in.name, h1.Sub(h0).Seconds()*1e3)
	t.rec.add("serve_decompress_ms", in.name, h2.Sub(h1).Seconds()*1e3)
}

// overhead times the workload's own compress calls on in with the library's
// tracing on and off, alternating so drift hits both alike.
func (t *traced) overhead(in input, codec Codec) {
	for _, label := range t.plan.main {
		call := func() error {
			if label == "chunked" {
				_, err := compressChunked(t.ctx, in.f, codec, chunksFor(in.f), 0)
				return err
			}
			m, err := modelNamed(label)
			if err != nil {
				return err
			}
			_, err = compressField(t.ctx, in.f, m, codec)
			return err
		}
		for _, on := range []bool{true, false} {
			restore := setObservability(on, on)
			t0 := time.Now()
			err := call()
			d := time.Since(t0).Seconds() * 1e3
			restore()
			t.rep.Attempted++
			if err != nil {
				t.rep.fail("%s %s compress (tracing %v): %v", in.name, label, on, err)
				return
			}
			name := "compress_untraced_ms"
			if on {
				name = "compress_traced_ms"
			}
			t.rec.add(name, in.name+"/"+label, d)
		}
	}
}

// finish turns the samples into the per-layer metrics.
func (t *traced) finish() {
	var gaps []float64
	for _, xs := range t.rec["bench.gap_frac"] {
		gaps = append(gaps, xs...)
	}
	if g := median(gaps); !(math.Abs(g) <= maxGap) {
		t.rep.problem("decomposed layers leave a median %.3g%% of each operation's wall time uncovered (limit %g%%)", 100*g, 100*maxGap)
	}
	for _, def := range perLayer {
		if v, n, ok := t.rec.value(def.name); ok {
			t.rep.set(def.name, v, def.unit, n)
		}
	}
	for metric, r := range t.shares {
		if r[1] > 0 {
			t.rep.set(metric, r[0]/r[1], unitOf(perLayer, metric), 0)
		}
	}
	diff := func(metric, a, b string) {
		va, n, okA := t.rec.value(a)
		vb, _, okB := t.rec.value(b)
		if okA && okB {
			t.rep.set(metric, va-vb, "ms", n)
		}
	}
	diff("serve.compress_overhead_ms", "serve_compress_ms", "chunked_compress_ms")
	diff("serve.decompress_overhead_ms", "serve_decompress_ms", "chunked_decompress_ms")
	if on, n, ok := t.rec.value("compress_traced_ms"); ok {
		if off, _, ok := t.rec.value("compress_untraced_ms"); ok {
			t.rep.set("trace.overhead_frac", on/off-1, "1", n)
		}
	}
	for metric := range t.rec {
		if v, _, ok := t.rec.value(metric); ok && unitOf(perLayer, metric) == "" {
			t.rep.Extra[metric] = v
		}
	}
}
