package experiments

import (
	"context"
	"fmt"
	"strings"

	"lrm/internal/compress/zfp"
	"lrm/internal/core"
	"lrm/internal/dataset"
	"lrm/internal/reduce"
	"lrm/internal/stats"
)

// Fig11Point is one point of a rate-distortion curve: compression ratio at
// a measured RMSE for a given ZFP precision.
type Fig11Point struct {
	Precision int
	RMSE      float64
	Ratio     float64
}

// Fig11Curve is one (dataset, method) rate-distortion curve.
type Fig11Curve struct {
	Dataset, Method string
	Points          []Fig11Point
}

// Fig11Result reproduces Fig. 11: compression ratio under equal information
// loss — ZFP's precision swept from 8 to 32 bits for direct compression and
// for PCA/SVD preconditioning, reported as ratio-vs-RMSE curves.
type Fig11Result struct {
	Curves []Fig11Curve
}

func init() {
	registerExperiment("fig11",
		"Fig. 11: compression ratio vs RMSE with ZFP precision swept 8..32 (direct vs PCA vs SVD)",
		func(cfg Config) (Renderer, error) { return RunFig11(cfg) })
}

// fig11Precisions is the sweep grid (the paper varies 8 to 32).
var fig11Precisions = []int{8, 12, 16, 20, 24, 28, 32}

// fig11Methods are the compared strategies.
func fig11Methods() []core.Candidate {
	return []core.Candidate{
		{Label: "original", Model: nil},
		{Label: "pca", Model: reduce.PCA{}},
		{Label: "svd", Model: reduce.SVD{}},
	}
}

// RunFig11 executes the Fig. 11 experiment.
func RunFig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	pairs, err := dataset.GenerateAll(cfg.Size)
	if err != nil {
		return nil, err
	}
	out := &Fig11Result{}
	for _, p := range pairs {
		for _, method := range fig11Methods() {
			curve := Fig11Curve{Dataset: p.Name, Method: method.Label}
			for _, prec := range fig11Precisions {
				deltaPrec := prec / 2
				if deltaPrec < 4 {
					deltaPrec = 4
				}
				opts := core.Options{
					Model:      method.Model,
					DataCodec:  zfp.MustNew(prec),
					DeltaCodec: zfp.MustNew(deltaPrec),
				}
				res, err := core.CompressCtx(context.TODO(), p.Full, opts)
				if err != nil {
					return nil, fmt.Errorf("fig11 %s/%s/p=%d: %w", p.Name, method.Label, prec, err)
				}
				dec, err := core.DecompressCtx(context.TODO(), res.Archive)
				if err != nil {
					return nil, fmt.Errorf("fig11 %s/%s/p=%d decompress: %w", p.Name, method.Label, prec, err)
				}
				curve.Points = append(curve.Points, Fig11Point{
					Precision: prec,
					RMSE:      stats.RMSE(p.Full.Data, dec.Data),
					Ratio:     res.Ratio(),
				})
			}
			out.Curves = append(out.Curves, curve)
		}
	}
	return out, nil
}

// Curve looks up one (dataset, method) curve.
func (r *Fig11Result) Curve(ds, method string) (Fig11Curve, bool) {
	for _, c := range r.Curves {
		if c.Dataset == ds && c.Method == method {
			return c, true
		}
	}
	return Fig11Curve{}, false
}

// BeatsDirectAtMatchedRMSE reports whether `method` achieves a higher ratio
// than direct compression at comparable information loss for the dataset:
// for each direct point, it interpolates the method's ratio at the same
// RMSE and checks for a win anywhere along the curve.
func (r *Fig11Result) BeatsDirectAtMatchedRMSE(ds, method string) bool {
	direct, ok1 := r.Curve(ds, "original")
	m, ok2 := r.Curve(ds, method)
	if !ok1 || !ok2 {
		return false
	}
	for _, dp := range direct.Points {
		if mr, ok := ratioAtRMSE(m.Points, dp.RMSE); ok && mr > dp.Ratio*1.02 {
			return true
		}
	}
	return false
}

// ratioAtRMSE linearly interpolates a curve's ratio at a target RMSE.
// Points must span the target; curves are monotone in precision, with RMSE
// decreasing as precision grows.
func ratioAtRMSE(points []Fig11Point, target float64) (float64, bool) {
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		lo, hi := b.RMSE, a.RMSE // RMSE decreases with precision
		if lo > hi {
			lo, hi = hi, lo
		}
		//lrmlint:ignore floatcmp exact-equality guard against a zero interpolation denominator
		if target >= lo && target <= hi && a.RMSE != b.RMSE {
			t := (a.RMSE - target) / (a.RMSE - b.RMSE)
			return a.Ratio + t*(b.Ratio-a.Ratio), true
		}
	}
	return 0, false
}

// Render implements Renderer.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11: compression ratio under the same RMSE (ZFP precision 8..32)\n\n")
	for _, ds := range dataset.Names() {
		fmt.Fprintf(&b, "%s\n", ds)
		var rows [][]string
		for _, method := range fig11Methods() {
			c, ok := r.Curve(ds, method.Label)
			if !ok {
				continue
			}
			for _, p := range c.Points {
				rows = append(rows, []string{method.Label, fmt.Sprintf("%d", p.Precision), e2(p.RMSE), f2(p.Ratio)})
			}
		}
		b.WriteString(table([]string{"method", "precision", "RMSE", "ratio"}, rows))
		for _, m := range []string{"pca", "svd"} {
			if r.BeatsDirectAtMatchedRMSE(ds, m) {
				fmt.Fprintf(&b, "  -> %s beats direct at matched RMSE\n", m)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
