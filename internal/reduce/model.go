// Package reduce implements the paper's reduced models — the latent
// representations used to precondition lossy compression.
//
// Two families are provided, mirroring Sections IV and V:
//
//   - projection-based models whose representation is a subset of the full
//     data: OneBase (the mid-plane, Algorithm 1), MultiBase (per-sub-domain
//     mid-planes), and DuoModel (a coarse resampled model, the prior work);
//   - dimension-reduction models whose representation is a transform of the
//     data: PCA, SVD, and Wavelet (thresholded Haar).
//
// Every model turns a field into a Rep — a small structural header plus a
// numeric payload — and can rebuild an approximation from the Rep alone.
// The preconditioning pipeline in internal/core stores the Rep together
// with the compressed delta (original minus reconstruction); because the
// reconstruction captures the data's latent structure, the delta is far
// smoother than the original and compresses much better.
//
// Model.Fit(ctx, f, cfg) builds a Rep and Rep.Reconstruct(ctx, dst, cfg)
// inverts it into the caller's dst, the codec stage's shape: cfg is the
// caller's worker budget for the PCA/SVD and linear algebra kernels (reps
// are byte-identical at every cfg), and ctx parents their spans.
// Model.Reduce and the package Reconstruct are the same calls on a
// background ctx, the zero cfg and (for Reconstruct) a nil dst,
// kept only for lrmbench3/layers.go, which changes only with the
// benchmark; the ROADMAP item "one benchmark PR, then delete the wrappers"
// deletes them once it moves to Fit.
package reduce

import (
	"context"
	"fmt"
	"math"
	"slices"

	"lrm/internal/grid"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// Rep is a serialisable reduced representation.
type Rep struct {
	// Model is the producing model's name (used to dispatch Reconstruct).
	Model string
	// Dims are the dims of the original full field.
	Dims []int
	// Meta is the model's structural header: counts, indices, shapes.
	// It must be preserved exactly.
	Meta []byte
	// Values is the model's numeric payload. The pipeline may compress it
	// lossily (the paper does), so reconstruction must tolerate small
	// perturbations here.
	Values []float64
}

// SizeBytes returns the representation's storage footprint, the quantity
// plotted in Fig. 9.
func (r *Rep) SizeBytes() int { return len(r.Meta) + 8*len(r.Values) }

// Model reduces fields to representations.
type Model interface {
	// Name identifies the model and its configuration.
	Name() string
	// Fit builds the reduced representation of f, running its kernels on
	// cfg's budget and opening their spans under ctx.
	Fit(ctx context.Context, f *grid.Field, cfg parallel.Config) (*Rep, error)
	// Reduce is Fit on a background ctx and the zero cfg (see the package doc).
	Reduce(f *grid.Field) (*Rep, error)
}

// The Reduce wrappers, one per model (see the package doc).
func (m OneBase) Reduce(f *grid.Field) (*Rep, error)     { return fitDefault(m, f) }
func (m MultiBase) Reduce(f *grid.Field) (*Rep, error)   { return fitDefault(m, f) }
func (m DuoModel) Reduce(f *grid.Field) (*Rep, error)    { return fitDefault(m, f) }
func (m DuoModelSim) Reduce(f *grid.Field) (*Rep, error) { return fitDefault(m, f) }
func (m PCA) Reduce(f *grid.Field) (*Rep, error)         { return fitDefault(m, f) }
func (m SVD) Reduce(f *grid.Field) (*Rep, error)         { return fitDefault(m, f) }
func (m Wavelet) Reduce(f *grid.Field) (*Rep, error)     { return fitDefault(m, f) }

func fitDefault(m Model, f *grid.Field) (*Rep, error) {
	return m.Fit(context.Background(), f, parallel.Config{})
}

// Reconstruct is rep.Reconstruct on a background ctx, a nil dst and the
// zero cfg.
func Reconstruct(rep *Rep) (*grid.Field, error) {
	return rep.Reconstruct(context.Background(), nil, parallel.Config{})
}

// reconstructor rebuilds an approximation of the original field from a Rep
// into dst (dims rep.Dims) on cfg's budget. dst's prior contents are
// unspecified, so it must write every element.
type reconstructor func(rep *Rep, dst *grid.Field, cfg parallel.Config) error

// reconstructors dispatches by the model base name (the part of Rep.Model
// before any '(').
var reconstructors = map[string]reconstructor{}

func register(baseName string, fn reconstructor) {
	if _, dup := reconstructors[baseName]; dup {
		panic(fmt.Sprintf("reduce: duplicate reconstructor %q", baseName))
	}
	reconstructors[baseName] = fn
}

// baseName strips a parameterisation suffix: "duomodel(f=4)" -> "duomodel".
func baseName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '(' {
			return name[:i]
		}
	}
	return name
}

// Reconstruct rebuilds the approximation rep describes into dst, on cfg's
// budget, under a reduce.reconstruct span parented by ctx, and returns dst.
// dst must have dims rep.Dims; its prior contents are ignored, because
// every reconstructor writes every element, so arena scratch serves. A nil
// dst allocates a zeroed field of rep.Dims. Reconstruct is the inverse
// transformation box of Fig. 5 and is used both when computing the delta
// at compression time and when rebuilding the original at decompression
// time.
func (rep *Rep) Reconstruct(ctx context.Context, dst *grid.Field, cfg parallel.Config) (f *grid.Field, err error) {
	_, sp := trace.Start(ctx, "reduce.reconstruct")
	defer sp.End()
	defer func() { sp.SetError(err) }()
	fn, ok := reconstructors[baseName(rep.Model)]
	if !ok {
		return nil, fmt.Errorf("reduce: no reconstructor for model %q", rep.Model)
	}
	if len(rep.Dims) == 0 {
		return nil, fmt.Errorf("reduce: rep has no dims")
	}
	if dst == nil {
		if dst, err = grid.NewChecked(rep.Dims...); err != nil {
			return nil, err
		}
	} else if !slices.Equal(dst.Dims, rep.Dims) || len(dst.Data) != elems(rep.Dims) {
		// Every model's reconstruction must land exactly on the original
		// grid, or the delta in the next stage silently misaligns.
		return nil, fmt.Errorf("reduce: destination dims %v (%d values) for rep dims %v", dst.Dims, len(dst.Data), rep.Dims)
	}
	if err := fn(rep, dst, cfg); err != nil {
		return nil, err
	}
	return dst, nil
}

// elems returns the element count of dims.
func elems(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// matShape chooses the canonical 2-D matricization of a field for the
// dimension-reduction models: rank >= 2 flattens leading dims into rows
// (cols = last extent); rank 1 folds into the most square factorisation so
// column structure exists to exploit.
func matShape(f *grid.Field) (m, n int) {
	if f.Rank() >= 2 {
		return f.Matricize()
	}
	total := f.Len()
	// Find the divisor of total closest to sqrt(total) from below.
	best := 1
	for d := 1; d*d <= total; d++ {
		if total%d == 0 {
			best = d
		}
	}
	n = best
	m = total / best
	if n > m {
		m, n = n, m
	}
	return m, n
}

// checkFinite rejects NaN/Inf inputs, which no model here supports.
func checkFinite(f *grid.Field) error {
	for i, v := range f.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("reduce: non-finite value at index %d", i)
		}
	}
	return nil
}
