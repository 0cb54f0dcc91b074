package reduce

import (
	"context"
	"encoding/binary"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/mpi"
	"lrm/internal/parallel"
)

// MultiBase is the paper's multi-base projection model (Fig. 2b): the
// leading dimension is split into Blocks sub-domains (one per MPI rank in
// the original setting) and each sub-domain uses its own local mid-plane as
// the base, avoiding the one-base broadcast at the cost of storing more
// planes.
type MultiBase struct {
	// Blocks is the number of sub-domains along the leading dimension.
	Blocks int
}

// Name implements Model.
func (m MultiBase) Name() string { return fmt.Sprintf("multi-base(b=%d)", m.Blocks) }

func init() { register("multi-base", reconstructMultiBase) }

// Fit implements Model: one mid-slab per sub-domain.
func (m MultiBase) Fit(_ context.Context, f *grid.Field, _ parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	b := m.Blocks
	if b < 1 {
		b = 1
	}
	if b > f.Dims[0] {
		b = f.Dims[0]
	}
	sl := slabLen(f.Dims)
	vals := make([]float64, 0, b*sl)
	for blk := 0; blk < b; blk++ {
		lo, hi := mpi.Slab1D(f.Dims[0], b, blk)
		mid := (lo + hi) / 2
		vals = append(vals, f.Data[mid*sl:(mid+1)*sl]...)
	}
	meta := binary.AppendUvarint(nil, uint64(b))
	return &Rep{Model: m.Name(), Dims: append([]int(nil), f.Dims...), Meta: meta, Values: vals}, nil
}

func reconstructMultiBase(rep *Rep, dst *grid.Field, _ parallel.Config) error {
	b64, n := binary.Uvarint(rep.Meta)
	if n <= 0 || b64 == 0 {
		return fmt.Errorf("reduce: multi-base meta corrupt")
	}
	b := int(b64)
	sl := slabLen(rep.Dims)
	if len(rep.Values) != b*sl {
		return fmt.Errorf("reduce: multi-base payload %d != %d blocks x slab %d", len(rep.Values), b, sl)
	}
	if b > rep.Dims[0] {
		return fmt.Errorf("reduce: multi-base has more blocks (%d) than slabs (%d)", b, rep.Dims[0])
	}
	// The blocks partition [0, Dims[0]), so every slab is written.
	for blk := 0; blk < b; blk++ {
		lo, hi := mpi.Slab1D(rep.Dims[0], b, blk)
		base := rep.Values[blk*sl : (blk+1)*sl]
		for k := lo; k < hi; k++ {
			copy(dst.Data[k*sl:(k+1)*sl], base)
		}
	}
	return nil
}
