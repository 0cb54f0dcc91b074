package reduce

import (
	"context"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/invariant"
	"lrm/internal/parallel"
)

// OneBase is the paper's one-base projection model (Fig. 2a, Algorithm 1):
// the middle slab along the leading dimension — the symmetry plane of the
// solution space — serves as the reduced model, and every other slab stores
// only its delta against it.
type OneBase struct{}

// Name implements Model.
func (OneBase) Name() string { return "one-base" }

func init() { register("one-base", reconstructOneBase) }

// slabLen returns the element count of one leading-dimension slab.
func slabLen(dims []int) int {
	n := 1
	for _, d := range dims[1:] {
		n *= d
	}
	if len(dims) == 1 {
		return 1
	}
	return n
}

// Fit implements Model: extract the middle slab.
func (OneBase) Fit(_ context.Context, f *grid.Field, _ parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	sl := slabLen(f.Dims)
	mid := f.Dims[0] / 2
	if invariant.Enabled {
		// Mid-plane selection invariant (Algorithm 1): the base slab index
		// and extent must stay inside the field.
		invariant.InRange(mid, 0, f.Dims[0], "reduce: one-base mid slab")
		invariant.Assert((mid+1)*sl <= f.Len(), "reduce: one-base slab [%d,%d) overruns field of %d", mid*sl, (mid+1)*sl, f.Len())
	}
	vals := make([]float64, sl)
	copy(vals, f.Data[mid*sl:(mid+1)*sl])
	return &Rep{Model: "one-base", Dims: append([]int(nil), f.Dims...), Values: vals}, nil
}

func reconstructOneBase(rep *Rep, _ parallel.Config) (*grid.Field, error) {
	sl := slabLen(rep.Dims)
	if len(rep.Values) != sl {
		return nil, fmt.Errorf("reduce: one-base payload %d != slab %d", len(rep.Values), sl)
	}
	f := grid.New(rep.Dims...)
	for k := 0; k < rep.Dims[0]; k++ {
		copy(f.Data[k*sl:(k+1)*sl], rep.Values)
	}
	return f, nil
}
