// Package lrm's root benchmark harness: one Benchmark per paper table and
// figure (regenerating the artifact end to end), plus codec and model
// micro-benchmarks and the ablation sweeps DESIGN.md calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate a single artifact's data:
//
//	go test -bench=BenchmarkFig6 -benchtime=1x -v
package lrm

import (
	"context"
	"fmt"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/experiments"
	"lrm/internal/grid"
	"lrm/internal/huffman"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
)

// benchCfg keeps per-iteration cost bounded; use -benchtime=1x for a single
// full regeneration.
func benchCfg() experiments.Config {
	return experiments.Config{Size: dataset.Small, Snapshots: 3}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + res.Render())
		}
	}
}

// --- one benchmark per paper artifact ---

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// --- codec micro-benchmarks ---

// benchField is a representative smooth 3-D field.
func benchField() *grid.Field {
	cfg := heat3d.Default(32)
	cfg.Steps = 100
	return heat3d.Solve(cfg)
}

func benchCodec(b *testing.B, c compress.Codec) {
	f := benchField()
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(8 * f.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compress(context.Background(), f, parallel.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(8 * f.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decompress(context.Background(), enc, parallel.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(compress.Ratio(f, enc), "ratio")
}

func BenchmarkCodecZFP(b *testing.B) { benchCodec(b, zfp.MustNew(16)) }
func BenchmarkCodecSZ(b *testing.B)  { benchCodec(b, sz.MustNew(sz.Abs, 1e-5)) }
func BenchmarkCodecFPC(b *testing.B) { benchCodec(b, fpc.MustNew(16)) }

// --- reduced-model micro-benchmarks ---

func benchModel(b *testing.B, m reduce.Model) {
	f := benchField()
	b.SetBytes(int64(8 * f.Len()))
	var rep *reduce.Rep
	b.Run("reduce", func(b *testing.B) {
		b.SetBytes(int64(8 * f.Len()))
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = m.Fit(context.Background(), f, parallel.Config{})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reconstruct", func(b *testing.B) {
		b.SetBytes(int64(8 * f.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := rep.Reconstruct(context.Background(), nil, parallel.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkModelOneBase(b *testing.B)   { benchModel(b, reduce.OneBase{}) }
func BenchmarkModelMultiBase(b *testing.B) { benchModel(b, reduce.MultiBase{Blocks: 4}) }
func BenchmarkModelDuoModel(b *testing.B)  { benchModel(b, reduce.DuoModel{Factor: 4}) }
func BenchmarkModelPCA(b *testing.B)       { benchModel(b, reduce.PCA{}) }
func BenchmarkModelSVD(b *testing.B)       { benchModel(b, reduce.SVD{}) }
func BenchmarkModelWavelet(b *testing.B)   { benchModel(b, reduce.Wavelet{}) }

// --- ablations (design-choice sweeps from DESIGN.md) ---

// AblationMultiBaseBlocks: the one-base <-> multi-base trade-off — more
// local bases shrink the deltas but grow the stored representation.
func BenchmarkAblationMultiBaseBlocks(b *testing.B) {
	f := benchField()
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		b.Fatal(err)
	}
	for _, blocks := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compress(context.Background(), f, core.Options{
					Model:      reduce.MultiBase{Blocks: blocks},
					DataCodec:  data,
					DeltaCodec: delta,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// AblationPCAEnergy: the 95% rule — retained variance vs compression ratio.
func BenchmarkAblationPCAEnergy(b *testing.B) {
	f := benchField()
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		b.Fatal(err)
	}
	for _, energy := range []float64{0.8, 0.9, 0.95, 0.99, 0.999} {
		b.Run(fmt.Sprintf("energy=%.3f", energy), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := core.Compress(context.Background(), f, core.Options{
					Model:      reduce.PCA{Energy: energy},
					DataCodec:  data,
					DeltaCodec: delta,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = res.Ratio()
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// AblationPCABlocked: the partitioned-matrix PCA (future work 1) — block
// width vs factorisation speed.
func BenchmarkAblationPCABlocked(b *testing.B) {
	f := benchField()
	for _, bc := range []int{0, 8, 16} {
		name := "full"
		if bc > 0 {
			name = fmt.Sprintf("blockcols=%d", bc)
		}
		b.Run(name, func(b *testing.B) {
			m := reduce.PCA{BlockCols: bc}
			b.SetBytes(int64(8 * f.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := m.Fit(context.Background(), f, parallel.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationWaveletTheta: the 5% threshold — representation size vs theta.
func BenchmarkAblationWaveletTheta(b *testing.B) {
	f := benchField()
	for _, theta := range []float64{0.01, 0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("theta=%.2f", theta), func(b *testing.B) {
			var bytes int
			m := reduce.Wavelet{Theta: theta}
			for i := 0; i < b.N; i++ {
				rep, err := m.Fit(context.Background(), f, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				bytes = rep.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "rep-bytes")
		})
	}
}

// AblationZFPPrecision: ratio vs precision for the transform coder.
func BenchmarkAblationZFPPrecision(b *testing.B) {
	f := benchField()
	for _, p := range []int{8, 16, 24, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			c := zfp.MustNew(p)
			b.SetBytes(int64(8 * f.Len()))
			var ratio float64
			for i := 0; i < b.N; i++ {
				enc, err := c.Compress(context.Background(), f, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = compress.Ratio(f, enc)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// --- MPI scaling micro-benchmark ---

func BenchmarkHeat3dParallel(b *testing.B) {
	cfg := heat3d.Default(24)
	cfg.Steps = 50
	for _, ranks := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := heat3d.SolveParallel(cfg, ranks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationZFPAccuracy: ratio vs absolute tolerance in fixed-accuracy mode.
func BenchmarkAblationZFPAccuracy(b *testing.B) {
	f := benchField()
	for _, tol := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		b.Run(fmt.Sprintf("tol=%.0e", tol), func(b *testing.B) {
			c := zfp.MustNewAccuracy(tol)
			b.SetBytes(int64(8 * f.Len()))
			var ratio float64
			for i := 0; i < b.N; i++ {
				enc, err := c.Compress(context.Background(), f, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = compress.Ratio(f, enc)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// AblationSZCurveFit: adaptive curve fitting vs plain Lorenzo on 1-D data.
func BenchmarkAblationSZCurveFit(b *testing.B) {
	f := grid.New(16384)
	for i := range f.Data {
		x := float64(i) / 100
		f.Data[i] = x*x - 3*x + 0.2*x*x*x/100
	}
	for _, cf := range []bool{false, true} {
		name := "lorenzo"
		c := sz.MustNew(sz.Abs, 1e-7)
		if cf {
			name = "curvefit"
			c = sz.MustNewCurveFit(sz.Abs, 1e-7)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(8 * f.Len()))
			var ratio float64
			for i := 0; i < b.N; i++ {
				enc, err := c.Compress(context.Background(), f, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				ratio = compress.Ratio(f, enc)
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

// ChunkedCompress: concurrency sweep of the N-to-N per-rank pattern.
func BenchmarkChunkedCompress(b *testing.B) {
	f := benchField()
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Model: reduce.OneBase{}, DataCodec: data, DeltaCodec: delta}
	for _, chunks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			b.SetBytes(int64(8 * f.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := core.CompressChunked(context.Background(), f, opts, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// RandSVDvsExact: the randomized factorisation speedup.
func BenchmarkRandSVDvsExact(b *testing.B) {
	f := benchField()
	b.Run("exact", func(b *testing.B) {
		m := reduce.SVD{}
		b.SetBytes(int64(8 * f.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := m.Fit(context.Background(), f, parallel.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("randomized", func(b *testing.B) {
		m := reduce.SVD{MaxK: 8, Randomized: true, Seed: 1}
		b.SetBytes(int64(8 * f.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := m.Fit(context.Background(), f, parallel.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// AblationWaveletDecomposition: standard (full rows then full columns) vs
// nonstandard (pyramid) Haar — representation size at the paper's 5%
// threshold.
func BenchmarkAblationWaveletDecomposition(b *testing.B) {
	f := benchField()
	for _, ns := range []bool{false, true} {
		name := "standard"
		if ns {
			name = "nonstandard"
		}
		b.Run(name, func(b *testing.B) {
			m := reduce.Wavelet{Nonstandard: ns}
			var bytes int
			for i := 0; i < b.N; i++ {
				rep, err := m.Fit(context.Background(), f, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				bytes = rep.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "rep-bytes")
		})
	}
}

// AblationZFPRate: fixed-rate mode — exact 64/rate ratios with per-block
// quality variation.
func BenchmarkAblationZFPRate(b *testing.B) {
	f := benchField()
	for _, rate := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			c := zfp.MustNewRate(rate)
			b.SetBytes(int64(8 * f.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := c.Compress(context.Background(), f, parallel.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- allocation budgets (zero-alloc steady state) ---
//
// The codec hot paths draw scratch from the internal/parallel arenas, so
// steady-state compression performs a small constant number of heap
// allocations regardless of field size. These tests pin that property: a
// regression back to per-symbol or per-point allocation fails fast here,
// without waiting for the BENCH gate.

func TestSZCompressAllocBudget(t *testing.T) {
	f := benchField()
	c := sz.MustNew(sz.Abs, 1e-5)
	serial := parallel.Config{Workers: 1}
	// Warm the arenas and the pooled flate writer.
	if _, err := c.Compress(context.Background(), f, serial); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Compress(context.Background(), f, serial); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Errorf("sz small compress: %.0f allocs/op, budget < 100", allocs)
	}
}

func TestHuffmanEncodeAllocBudget(t *testing.T) {
	// Skewed symbols like sz quantization codes.
	syms := make([]int, 32768)
	for i := range syms {
		v := 32768
		switch {
		case i%97 == 0:
			v = 65536
		case i%13 == 0:
			v = 32768 + (i%7 - 3)
		case i%5 == 0:
			v = 32768 + i%3
		}
		syms[i] = v
	}
	if out := huffman.Encode(syms, 1); len(out) == 0 {
		t.Fatal("empty encode")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if out := huffman.Encode(syms, 1); len(out) == 0 {
			t.Fatal("empty encode")
		}
	})
	if allocs >= 40 {
		t.Errorf("huffman encode: %.0f allocs/op, budget < 40", allocs)
	}
}

func TestHuffmanDecodeAllocBudget(t *testing.T) {
	syms := make([]int, 32768)
	for i := range syms {
		syms[i] = 32768 + i%5
	}
	enc := huffman.Encode(syms, 1)
	if _, err := huffman.Decode(enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := huffman.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 40 {
		t.Errorf("huffman decode: %.0f allocs/op, budget < 40", allocs)
	}
}
