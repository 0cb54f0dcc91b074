package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/reduce"
	"lrm/internal/stats"
)

// DimredCell is one measurement of the dimension-reduction sweep shared by
// Figs. 6, 9, 10, and 12: a (dataset, method, compressor) combination's
// compression ratio, end-to-end RMSE, reduced-representation size, and
// compression/decompression wall times.
type DimredCell struct {
	Dataset, Method, Compressor string
	Ratio                       float64
	RMSE                        float64
	RepBytes                    int
	CompressSec, DecompressSec  float64
}

// DimredSweep is the full grid of measurements.
type DimredSweep struct {
	Cells []DimredCell
}

// dimredMethods are the Section V models plus the direct baseline.
func dimredMethods() []core.Candidate {
	return []core.Candidate{
		{Label: "original", Model: nil},
		{Label: "pca", Model: reduce.PCA{}},
		{Label: "svd", Model: reduce.SVD{}},
		{Label: "wavelet", Model: reduce.Wavelet{}},
	}
}

func dimredCompressors() []string { return []string{"zfp", "sz"} }

// runDimredSweep measures every combination once on each dataset's full
// field.
func runDimredSweep(cfg Config) (*DimredSweep, error) {
	cfg = cfg.withDefaults()
	pairs, err := dataset.GenerateAll(cfg.Size)
	if err != nil {
		return nil, err
	}
	sweep := &DimredSweep{}
	for _, p := range pairs {
		for _, family := range dimredCompressors() {
			data, delta, err := core.PaperCodecs(family)
			if err != nil {
				return nil, err
			}
			for _, method := range dimredMethods() {
				opts := core.Options{Model: method.Model, DataCodec: data, DeltaCodec: delta}
				start := time.Now()
				res, err := core.Compress(context.TODO(), p.Full, opts)
				if err != nil {
					return nil, fmt.Errorf("dimred %s/%s/%s: %w", p.Name, family, method.Label, err)
				}
				compressSec := time.Since(start).Seconds()

				start = time.Now()
				dec, err := core.Decompress(context.TODO(), res.Archive, core.DecompressOpts{})
				if err != nil {
					return nil, fmt.Errorf("dimred %s/%s/%s decompress: %w", p.Name, family, method.Label, err)
				}
				decompressSec := time.Since(start).Seconds()

				sweep.Cells = append(sweep.Cells, DimredCell{
					Dataset: p.Name, Method: method.Label, Compressor: family,
					Ratio:         res.Ratio(),
					RMSE:          stats.RMSE(p.Full.Data, dec.Data),
					RepBytes:      res.RepBytes(),
					CompressSec:   compressSec,
					DecompressSec: decompressSec,
				})
			}
		}
	}
	return sweep, nil
}

// Cell looks up one measurement.
func (s *DimredSweep) Cell(ds, method, comp string) (DimredCell, bool) {
	for _, c := range s.Cells {
		if c.Dataset == ds && c.Method == method && c.Compressor == comp {
			return c, true
		}
	}
	return DimredCell{}, false
}

// --- Fig. 6: compression ratios ---

// Fig6Result reproduces Fig. 6: compression ratios of PCA/SVD/Wavelet
// preconditioning vs direct compression under ZFP and SZ, per dataset.
type Fig6Result struct{ Sweep *DimredSweep }

func init() {
	registerExperiment("fig6",
		"Fig. 6: compression ratios of PCA/SVD/Wavelet preconditioning vs direct, 9 datasets x ZFP/SZ",
		func(cfg Config) (Renderer, error) { return RunFig6(cfg) })
}

// RunFig6 executes the Fig. 6 experiment.
func RunFig6(cfg Config) (*Fig6Result, error) {
	s, err := runDimredSweep(cfg)
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Sweep: s}, nil
}

// Render implements Renderer.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 6: compression ratios (preconditioned vs direct)\n\n")
	header := []string{"dataset"}
	for _, comp := range dimredCompressors() {
		for _, m := range dimredMethods() {
			header = append(header, fmt.Sprintf("%s+%s", m.Label, strings.ToUpper(comp)))
		}
	}
	var rows [][]string
	for _, ds := range dataset.Names() {
		row := []string{ds}
		for _, comp := range dimredCompressors() {
			for _, m := range dimredMethods() {
				if c, ok := r.Sweep.Cell(ds, m.Label, comp); ok {
					row = append(row, f2(c.Ratio))
				} else {
					row = append(row, "-")
				}
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// --- Fig. 9: reduced-representation sizes ---

// Fig9Result reproduces Fig. 9: the stored size of each reduced
// representation per dataset (Wavelet's sparse matrix is the outlier).
type Fig9Result struct{ Sweep *DimredSweep }

func init() {
	registerExperiment("fig9",
		"Fig. 9: size of the reduced representations (PCA, SVD, Wavelet) per dataset",
		func(cfg Config) (Renderer, error) { return RunFig9(cfg) })
}

// RunFig9 executes the Fig. 9 experiment.
func RunFig9(cfg Config) (*Fig9Result, error) {
	s, err := runDimredSweep(cfg)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Sweep: s}, nil
}

// Render implements Renderer.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 9: size of reduced representations (bytes, stored compressed; zfp pipeline)\n\n")
	var rows [][]string
	for _, ds := range dataset.Names() {
		row := []string{ds}
		for _, m := range []string{"pca", "svd", "wavelet"} {
			if c, ok := r.Sweep.Cell(ds, m, "zfp"); ok {
				row = append(row, fmt.Sprintf("%d", c.RepBytes))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table([]string{"dataset", "PCA", "SVD", "Wavelet"}, rows))
	return b.String()
}

// --- Fig. 10: RMSE comparison ---

// Fig10Result reproduces Fig. 10: the end-to-end RMSE of every
// method x compressor combination against direct compression.
type Fig10Result struct{ Sweep *DimredSweep }

func init() {
	registerExperiment("fig10",
		"Fig. 10: RMSE of preconditioned vs direct compression, 9 datasets x ZFP/SZ",
		func(cfg Config) (Renderer, error) { return RunFig10(cfg) })
}

// RunFig10 executes the Fig. 10 experiment.
func RunFig10(cfg Config) (*Fig10Result, error) {
	s, err := runDimredSweep(cfg)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Sweep: s}, nil
}

// Render implements Renderer.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10: RMSE introduced by each method (lower is better)\n\n")
	header := []string{"dataset"}
	for _, comp := range dimredCompressors() {
		for _, m := range dimredMethods() {
			header = append(header, fmt.Sprintf("%s+%s", m.Label, strings.ToUpper(comp)))
		}
	}
	var rows [][]string
	for _, ds := range dataset.Names() {
		row := []string{ds}
		for _, comp := range dimredCompressors() {
			for _, m := range dimredMethods() {
				if c, ok := r.Sweep.Cell(ds, m.Label, comp); ok {
					row = append(row, e2(c.RMSE))
				} else {
					row = append(row, "-")
				}
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))
	return b.String()
}

// --- Fig. 12: compression/decompression overhead ---

// Fig12Result reproduces Fig. 12: mean compression and decompression time
// per method, normalised to direct ZFP.
type Fig12Result struct {
	Sweep *DimredSweep
}

func init() {
	registerExperiment("fig12",
		"Fig. 12: compression/decompression overhead of PCA/SVD/Wavelet vs direct (normalised to direct ZFP)",
		func(cfg Config) (Renderer, error) { return RunFig12(cfg) })
}

// RunFig12 executes the Fig. 12 experiment.
func RunFig12(cfg Config) (*Fig12Result, error) {
	s, err := runDimredSweep(cfg)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Sweep: s}, nil
}

// MeanTimes returns the average compression and decompression seconds for a
// (method, compressor) pair across datasets.
func (r *Fig12Result) MeanTimes(method, comp string) (compressSec, decompressSec float64) {
	n := 0
	for _, c := range r.Sweep.Cells {
		if c.Method == method && c.Compressor == comp {
			compressSec += c.CompressSec
			decompressSec += c.DecompressSec
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return compressSec / float64(n), decompressSec / float64(n)
}

// Render implements Renderer.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 12: average compression/decompression time across datasets\n")
	b.WriteString("(xC, xD columns are normalised to direct ZFP)\n\n")
	baseC, baseD := r.MeanTimes("original", "zfp")
	var rows [][]string
	for _, comp := range dimredCompressors() {
		for _, m := range dimredMethods() {
			c, d := r.MeanTimes(m.Label, comp)
			row := []string{fmt.Sprintf("%s+%s", m.Label, strings.ToUpper(comp)),
				fmt.Sprintf("%.4f", c), fmt.Sprintf("%.4f", d)}
			if baseC > 0 && baseD > 0 {
				row = append(row, f2(c/baseC), f2(d/baseD))
			} else {
				row = append(row, "-", "-")
			}
			rows = append(rows, row)
		}
	}
	b.WriteString(table([]string{"method", "compress(s)", "decompress(s)", "xC", "xD"}, rows))
	return b.String()
}
