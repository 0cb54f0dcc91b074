package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/reduce"
)

// Fig4Point is one scatter point of Fig. 4: a snapshot's original
// compressibility (ZFP ratio of the raw data) against the improvement
// factor achieved by one-base preconditioning.
type Fig4Point struct {
	Dataset     string
	BaseRatio   float64 // x-axis: ZFP ratio of the original data
	Improvement float64 // y-axis: one-base ratio / original ratio
}

// Fig4Result reproduces Fig. 4: compression-ratio improvement vs the
// compressibility of the original data, over the Heat3d and Laplace
// snapshot series.
type Fig4Result struct {
	Points []Fig4Point
}

func init() {
	registerExperiment("fig4",
		"Fig. 4: one-base improvement vs original-data compressibility (ZFP), Heat3d + Laplace snapshots",
		func(cfg Config) (Renderer, error) { return RunFig4(cfg) })
}

// RunFig4 executes the Fig. 4 experiment.
func RunFig4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	data, delta, err := core.PaperCodecs("zfp")
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{}
	for _, ds := range []string{"Heat3d", "Laplace"} {
		snaps, err := dataset.Snapshots(ds, cfg.Size, cfg.Snapshots)
		if err != nil {
			return nil, err
		}
		for _, f := range snaps {
			direct, err := core.Compress(context.TODO(), f, core.Options{DataCodec: data})
			if err != nil {
				return nil, err
			}
			pre, err := core.Compress(context.TODO(), f, core.Options{
				Model: reduce.OneBase{}, DataCodec: data, DeltaCodec: delta,
			})
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, Fig4Point{
				Dataset:     ds,
				BaseRatio:   direct.Ratio(),
				Improvement: pre.Ratio() / direct.Ratio(),
			})
		}
	}
	return out, nil
}

// Correlation returns the Pearson correlation between base compressibility
// and improvement — the paper's claim is that it is positive.
func (r *Fig4Result) Correlation() float64 {
	n := float64(len(r.Points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range r.Points {
		sx += p.BaseRatio
		sy += p.Improvement
		sxx += p.BaseRatio * p.BaseRatio
		syy += p.Improvement * p.Improvement
		sxy += p.BaseRatio * p.Improvement
	}
	den := (sxx - sx*sx/n) * (syy - sy*sy/n)
	if den <= 0 {
		return 0
	}
	return (sxy - sx*sy/n) / math.Sqrt(den)
}

// Render implements Renderer.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4: compression-ratio improvement vs compressibility (one-base, ZFP)\n\n")
	pts := append([]Fig4Point(nil), r.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].BaseRatio < pts[j].BaseRatio })
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{p.Dataset, f2(p.BaseRatio), f2(p.Improvement)})
	}
	b.WriteString(table([]string{"dataset", "ZFP ratio (original)", "improvement (x)"}, rows))
	fmt.Fprintf(&b, "\nPearson correlation (compressibility vs improvement): %.3f\n", r.Correlation())
	return b.String()
}
