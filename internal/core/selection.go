package core

import (
	"context"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/reduce"
)

// Candidate pairs a model (nil = direct compression) with a label.
type Candidate struct {
	Label string
	Model reduce.Model
}

// DefaultCandidates returns the selection pool: direct compression, the
// projection models, and the dimension-reduction models.
func DefaultCandidates() []Candidate {
	return []Candidate{
		{Label: "direct", Model: nil},
		{Label: "one-base", Model: reduce.OneBase{}},
		{Label: "multi-base", Model: reduce.MultiBase{Blocks: 4}},
		{Label: "duomodel", Model: reduce.DuoModel{Factor: 4}},
		{Label: "pca", Model: reduce.PCA{}},
		{Label: "svd", Model: reduce.SVD{}},
		{Label: "wavelet", Model: reduce.Wavelet{}},
	}
}

// SelectionResult records one candidate's outcome during model selection.
type SelectionResult struct {
	Label string
	Ratio float64
	Err   error
}

// SelectModel implements the paper's second future-work direction: no
// single reduced model wins on every dataset, so try each candidate and
// pick the one with the best compression ratio. Candidates that fail
// (e.g. a model that cannot handle the field's shape) are skipped and
// reported in the results. Every trial compression parents its spans onto
// ctx.
func SelectModel(ctx context.Context, f *grid.Field, candidates []Candidate, opts Options) (best Candidate, results []SelectionResult, err error) {
	if opts.DataCodec == nil {
		return Candidate{}, nil, fmt.Errorf("core: DataCodec is required")
	}
	bestRatio := -1.0
	found := false
	for _, cand := range candidates {
		o := opts
		o.Model = cand.Model
		res, cerr := CompressCtx(ctx, f, o)
		if cerr != nil {
			results = append(results, SelectionResult{Label: cand.Label, Err: cerr})
			continue
		}
		ratio := res.Ratio()
		results = append(results, SelectionResult{Label: cand.Label, Ratio: ratio})
		if ratio > bestRatio {
			bestRatio = ratio
			best = cand
			found = true
		}
	}
	if !found {
		return Candidate{}, results, fmt.Errorf("core: every candidate failed")
	}
	return best, results, nil
}
