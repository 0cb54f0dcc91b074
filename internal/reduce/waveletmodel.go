package reduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/wavelet"
)

// Wavelet is the thresholded-Haar reduced model (Section V-A.3): the
// matricized data is Haar-transformed along rows then columns, coefficients
// below Theta times the max coefficient magnitude are zeroed, and the
// surviving sparse matrix is the reduced representation.
type Wavelet struct {
	// Theta is the threshold as a fraction of the max |coefficient|;
	// 0 defaults to the paper's 5%.
	Theta float64
	// Nonstandard switches to the pyramid (nonstandard) decomposition of
	// the paper's reference [24] — rows and columns alternate one level at
	// a time, recursing into the low-low quadrant — which often thresholds
	// sparser on isotropic features.
	Nonstandard bool
}

// Name implements Model.
func (w Wavelet) Name() string {
	if w.Nonstandard {
		return fmt.Sprintf("wavelet(t=%.2f,ns)", w.theta())
	}
	return fmt.Sprintf("wavelet(t=%.2f)", w.theta())
}

func (w Wavelet) theta() float64 {
	if w.Theta <= 0 || w.Theta >= 1 {
		return 0.05
	}
	return w.Theta
}

func init() { register("wavelet", reconstructWavelet) }

// Fit implements Model.
func (w Wavelet) Fit(_ context.Context, f *grid.Field, _ parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	m, n := matShape(f)
	// The transform runs in place on a copy in arena scratch, released
	// once ToSparse has copied out the surviving coefficients.
	coeff := parallel.Floats(len(f.Data))
	defer parallel.PutFloats(coeff)
	copy(coeff, f.Data)
	var err error
	if w.Nonstandard {
		err = wavelet.Forward2DNonstandard(coeff, m, n)
	} else {
		err = wavelet.Forward2D(coeff, m, n)
	}
	if err != nil {
		return nil, err
	}
	maxAbs := 0.0
	for _, v := range coeff {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	wavelet.Threshold(coeff, w.theta()*maxAbs)
	sp, err := wavelet.ToSparse(coeff, m, n)
	if err != nil {
		return nil, err
	}

	// Indices (delta-varint) go in Meta — they must survive exactly;
	// coefficient values go in Values so the pipeline may quantise them.
	var meta []byte
	kind := uint64(0)
	if w.Nonstandard {
		kind = 1
	}
	meta = binary.AppendUvarint(meta, kind)
	meta = binary.AppendUvarint(meta, uint64(m))
	meta = binary.AppendUvarint(meta, uint64(n))
	meta = binary.AppendUvarint(meta, uint64(sp.NNZ()))
	prev := 0
	for _, idx := range sp.Index {
		meta = binary.AppendUvarint(meta, uint64(idx-prev))
		prev = idx
	}
	return &Rep{
		Model:  w.Name(),
		Dims:   append([]int(nil), f.Dims...),
		Meta:   meta,
		Values: sp.Value,
	}, nil
}

func reconstructWavelet(rep *Rep, dst *grid.Field, _ parallel.Config) error {
	pos := 0
	next := func() (int, error) {
		v, n := binary.Uvarint(rep.Meta[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("wavelet: corrupt meta")
		}
		pos += n
		return int(v), nil
	}
	kind, err := next()
	if err != nil {
		return err
	}
	if kind > 1 {
		return fmt.Errorf("wavelet: unknown transform kind %d", kind)
	}
	m, err := next()
	if err != nil {
		return err
	}
	n, err := next()
	if err != nil {
		return err
	}
	nnz, err := next()
	if err != nil {
		return err
	}
	total := len(dst.Data)
	if m <= 0 || n <= 0 || m*n != total || nnz < 0 || nnz > total {
		return fmt.Errorf("wavelet: implausible shape m=%d n=%d nnz=%d", m, n, nnz)
	}
	if len(rep.Values) != nnz {
		return fmt.Errorf("wavelet: payload %d != nnz %d", len(rep.Values), nnz)
	}
	// Scatter the surviving coefficients into a cleared dst and invert in
	// place.
	coeff := dst.Data
	clear(coeff)
	idx := 0
	for i := 0; i < nnz; i++ {
		d, err := next()
		if err != nil {
			return err
		}
		idx += d
		if idx >= total || (i > 0 && d == 0) {
			return fmt.Errorf("wavelet: index stream corrupt")
		}
		coeff[idx] = rep.Values[i]
	}
	if kind == 1 {
		err = wavelet.Inverse2DNonstandard(coeff, m, n)
	} else {
		err = wavelet.Inverse2D(coeff, m, n)
	}
	return err
}
