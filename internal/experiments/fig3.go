package experiments

import (
	"context"
	"fmt"
	"strings"

	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/grid"
	"lrm/internal/reduce"
)

// Fig3Cell is one bar of Fig. 3: a (dataset, compressor, method) average
// compression ratio over the snapshot series.
type Fig3Cell struct {
	Dataset, Compressor, Method string
	Ratio                       float64
}

// Fig3Result reproduces Fig. 3: compression ratios of the projection-based
// reduced models (original vs one-base vs multi-base vs DuoModel) on Heat3d
// and Laplace under SZ, ZFP, and FPC, averaged over the snapshot series.
type Fig3Result struct {
	Cells     []Fig3Cell
	Snapshots int
}

func init() {
	registerExperiment("fig3",
		"Fig. 3: compression ratios of projection-based reduced models (Heat3d, Laplace x SZ, ZFP, FPC)",
		func(cfg Config) (Renderer, error) { return RunFig3(cfg) })
}

// fig3Method builds the model for one bar, per snapshot index: DuoModel
// takes the matching coarse-simulation output, the others are stateless.
type fig3Method struct {
	label string
	model func(i int, coarse []*grid.Field) reduce.Model
}

// fig3Methods are the four bars per group. multi-base uses 2 sub-domains
// (the paper's 8 Z-ranks scaled to our grid heights so the stored planes
// stay a few percent of the data).
func fig3Methods() []fig3Method {
	return []fig3Method{
		{label: "original", model: func(int, []*grid.Field) reduce.Model { return nil }},
		{label: "one-base", model: func(int, []*grid.Field) reduce.Model { return reduce.OneBase{} }},
		{label: "multi-base", model: func(int, []*grid.Field) reduce.Model { return reduce.MultiBase{Blocks: 2} }},
		{label: "duomodel", model: func(i int, coarse []*grid.Field) reduce.Model {
			return reduce.DuoModelSim{Coarse: coarse[i]}
		}},
	}
}

// fig3Compressors are the three codec families of Section IV-B.
func fig3Compressors() []string { return []string{"sz", "zfp", "fpc"} }

// RunFig3 executes the Fig. 3 experiment.
func RunFig3(cfg Config) (*Fig3Result, error) {
	cfg = cfg.withDefaults()
	out := &Fig3Result{Snapshots: cfg.Snapshots}
	for _, ds := range []string{"Heat3d", "Laplace"} {
		snaps, err := dataset.Snapshots(ds, cfg.Size, cfg.Snapshots)
		if err != nil {
			return nil, err
		}
		coarse, err := dataset.CoarseSnapshots(ds, cfg.Size, cfg.Snapshots)
		if err != nil {
			return nil, err
		}
		for _, family := range fig3Compressors() {
			data, delta, err := core.PaperCodecs(family)
			if err != nil {
				return nil, err
			}
			for _, method := range fig3Methods() {
				sum := 0.0
				for i, f := range snaps {
					res, err := core.CompressCtx(context.TODO(), f, core.Options{
						Model: method.model(i, coarse), DataCodec: data, DeltaCodec: delta,
					})
					if err != nil {
						return nil, fmt.Errorf("fig3 %s/%s/%s: %w", ds, family, method.label, err)
					}
					sum += res.Ratio()
				}
				out.Cells = append(out.Cells, Fig3Cell{
					Dataset: ds, Compressor: family, Method: method.label, Ratio: sum / float64(len(snaps)),
				})
			}
		}
	}
	return out, nil
}

// Ratio looks up one cell's ratio (testing helper).
func (r *Fig3Result) Ratio(ds, comp, method string) (float64, bool) {
	for _, c := range r.Cells {
		if c.Dataset == ds && c.Compressor == comp && c.Method == method {
			return c.Ratio, true
		}
	}
	return 0, false
}

// Render implements Renderer.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: compression ratios, projection-based methods (avg over %d outputs)\n\n", r.Snapshots)
	var rows [][]string
	for _, ds := range []string{"Heat3d", "Laplace"} {
		for _, comp := range fig3Compressors() {
			row := []string{fmt.Sprintf("%s+%s", ds, strings.ToUpper(comp))}
			for _, m := range fig3Methods() {
				if v, ok := r.Ratio(ds, comp, m.label); ok {
					row = append(row, f2(v))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
	}
	b.WriteString(table([]string{"setup", "original", "one-base", "multi-base", "duomodel"}, rows))
	return b.String()
}
