package main

// metricDef is one metric the benchmark computes. BENCHMARK.json lists the
// same names and units (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the library or of lrmserve sees. They
// are computed with tracing off, and every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"compress_mb_s", "MB/s"},
	{"decompress_mb_s", "MB/s"},
	{"compress_p50_ms", "ms"},
	{"decompress_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"ratio", "x"},
	{"alloc_mb_per_raw_mb", "MB/MB"},
	{"live_heap_max_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after the library's stage
// names. Every workload reports all of them (see traced.go for how each is
// measured and layers.json for the end-to-end metric each should move).
var perLayer = []metricDef{
	{"reduce.fit_ms", "ms"},
	{"reduce.fit_frac", "1"},
	{"reduce.fit_alloc_mb", "MB"},
	{"reduce.reconstruct_ms", "ms"},
	{"reduce.rep_bytes", "B"},
	{"core.rep_store_ms", "ms"},
	{"core.delta_ms", "ms"},
	{"core.delta_alloc_mb", "MB"},
	{"core.apply_delta_ms", "ms"},
	{"core.compress_unattributed_frac", "1"},
	{"core.decompress_unattributed_frac", "1"},
	{"core.chunk_compress_ms", "ms"},
	{"core.chunk_decode_ms", "ms"},
	{"sz.compress_ms", "ms"},
	{"sz.decompress_ms", "ms"},
	{"sz.quantize_frac", "1"},
	{"sz.huffman_frac", "1"},
	{"sz.flate_frac", "1"},
	{"sz.inflate_frac", "1"},
	{"sz.dequantize_frac", "1"},
	{"sz.bits_per_value", "bit"},
	{"zfp.compress_ms", "ms"},
	{"zfp.decompress_ms", "ms"},
	{"zfp.transform_frac", "1"},
	{"zfp.plane_code_frac", "1"},
	{"zfp.plane_decode_frac", "1"},
	{"zfp.inv_transform_frac", "1"},
	{"zfp.bits_per_value", "bit"},
	{"parallel.utilization", "1"},
	{"parallel.speedup", "x"},
	{"serve.compress_overhead_ms", "ms"},
	{"serve.decompress_overhead_ms", "ms"},
	{"runtime.gc_cpu_frac", "1"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_frac", "1"},
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
