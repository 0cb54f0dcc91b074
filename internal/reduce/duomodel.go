package reduce

import (
	"context"
	"encoding/binary"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// DuoModel is the paper's prior-work baseline (Fig. 2c): the reduced model
// is a lower-resolution version of the data, and reconstruction linearly
// interpolates it back to full resolution. In the original system the
// coarse model came from re-running the simulation at enlarged grid
// spacing; synthesising it by resampling the analysis output reproduces the
// same delta structure without the extra compute partition.
type DuoModel struct {
	// Factor is the per-dimension coarsening factor (the paper's 192->48
	// corresponds to 4).
	Factor int
}

// Name implements Model.
func (d DuoModel) Name() string { return fmt.Sprintf("duomodel(f=%d)", d.factor()) }

func (d DuoModel) factor() int {
	if d.Factor < 2 {
		return 4
	}
	return d.Factor
}

func init() { register("duomodel", reconstructDuoModel) }

// Fit implements Model: block-average downsample.
func (d DuoModel) Fit(_ context.Context, f *grid.Field, _ parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	factor := d.factor()
	// Find the largest factor <= requested that divides every extent.
	for factor > 1 {
		ok := true
		for _, ext := range f.Dims {
			if ext%factor != 0 || ext/factor < 2 {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		factor--
	}
	if factor < 2 {
		return nil, fmt.Errorf("duomodel: dims %v cannot be coarsened", f.Dims)
	}
	coarse, err := f.Downsample(factor)
	if err != nil {
		return nil, err
	}
	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(len(coarse.Dims)))
	for _, ext := range coarse.Dims {
		meta = binary.AppendUvarint(meta, uint64(ext))
	}
	return &Rep{
		Model:  d.Name(),
		Dims:   append([]int(nil), f.Dims...),
		Meta:   meta,
		Values: coarse.Data,
	}, nil
}

func reconstructDuoModel(rep *Rep, _ parallel.Config) (*grid.Field, error) {
	pos := 0
	rank64, n := binary.Uvarint(rep.Meta)
	if n <= 0 || rank64 == 0 || rank64 > 3 {
		return nil, fmt.Errorf("duomodel: corrupt meta")
	}
	pos += n
	dims := make([]int, rank64)
	total := 1
	for i := range dims {
		v, n := binary.Uvarint(rep.Meta[pos:])
		if n <= 0 || v == 0 {
			return nil, fmt.Errorf("duomodel: corrupt coarse dims")
		}
		pos += n
		dims[i] = int(v)
		total *= dims[i]
	}
	if total != len(rep.Values) {
		return nil, fmt.Errorf("duomodel: payload %d != coarse size %d", len(rep.Values), total)
	}
	coarse, err := grid.FromData(rep.Values, dims...)
	if err != nil {
		return nil, err
	}
	return coarse.Upsample(rep.Dims...)
}
