package reduce

import (
	"context"
	"encoding/binary"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// DuoModelSim is the faithful DuoModel variant: the reduced model is the
// output of an independently run coarse-resolution simulation (the paper's
// S'), not a resample of the analysis data. Because the coarse run has its
// own discretisation and time-stepping errors, its interpolated
// reconstruction deviates from the full model in structured ways, giving
// the larger-variation deltas the paper reports for DuoModel in Fig. 3.
//
// The representation and reconstruction path are identical to DuoModel
// (coarse field + linear upsample), so the stored archive is
// indistinguishable; only where the coarse field comes from differs.
type DuoModelSim struct {
	// Coarse is the coarse simulation's output. Its rank must match the
	// data being reduced.
	Coarse *grid.Field
}

// Name implements Model.
func (d DuoModelSim) Name() string { return "duomodel(sim)" }

// Fit implements Model: store the provided coarse-run output.
func (d DuoModelSim) Fit(_ context.Context, f *grid.Field, _ parallel.Config) (*Rep, error) {
	if d.Coarse == nil {
		return nil, fmt.Errorf("duomodel(sim): no coarse model output provided")
	}
	if d.Coarse.Rank() != f.Rank() {
		return nil, fmt.Errorf("duomodel(sim): coarse rank %d != data rank %d", d.Coarse.Rank(), f.Rank())
	}
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	if err := checkFinite(d.Coarse); err != nil {
		return nil, err
	}
	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(len(d.Coarse.Dims)))
	for _, ext := range d.Coarse.Dims {
		meta = binary.AppendUvarint(meta, uint64(ext))
	}
	return &Rep{
		Model:  d.Name(), // baseName "duomodel": shares the upsampling reconstructor
		Dims:   append([]int(nil), f.Dims...),
		Meta:   meta,
		Values: append([]float64(nil), d.Coarse.Data...),
	}, nil
}
