package reduce

import (
	"context"
	"encoding/binary"
	"fmt"

	"lrm/internal/grid"
	"lrm/internal/linalg"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// obsSVDRank reports the rank retained by the most recent SVD fit.
var obsSVDRank = obs.GetGauge("reduce.svd.rank")

// SVD is the singular-value-decomposition reduced model (Section V-A.2):
// the matricized data is factored A = U S V^T and the k leading triples
// retained, with k chosen by the 95% singular-value energy rule. Unlike
// PCA, which works on the column covariance, SVD captures column and row
// structure together — at a higher factorisation cost (Table III).
type SVD struct {
	// Energy is the singular-value mass fraction to capture; 0 -> 0.95.
	Energy float64
	// MaxK caps the retained rank; 0 means no cap.
	MaxK int
	// Randomized switches to the randomized range-finder factorisation
	// (Halko et al.) at rank MaxK (required > 0) — O(mn·k) instead of the
	// exact solver's O(mn^2), the speed lever the paper's future work
	// asks for. Seed keeps archives reproducible.
	Randomized bool
	Seed       int64
}

// Name implements Model.
func (s SVD) Name() string {
	if s.Randomized {
		return fmt.Sprintf("svd(e=%.2f,rand%d)", s.energy(), s.MaxK)
	}
	return fmt.Sprintf("svd(e=%.2f)", s.energy())
}

func (s SVD) energy() float64 {
	if s.Energy <= 0 || s.Energy > 1 {
		return 0.95
	}
	return s.Energy
}

func init() { register("svd", reconstructSVD) }

// Fit implements Model.
func (s SVD) Fit(ctx context.Context, f *grid.Field, cfg parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	m, n := matShape(f)
	// Both factorisations read mat without modifying it, so it can alias
	// the field.
	mat, err := linalg.MatrixFromData(f.Data, m, n)
	if err != nil {
		return nil, err
	}
	if s.Randomized && s.MaxK < 1 {
		return nil, fmt.Errorf("svd: Randomized requires MaxK >= 1")
	}
	_, sp := trace.Start(ctx, "reduce.svd")
	var res *linalg.SVDResult
	if s.Randomized {
		res, err = linalg.RandSVD(mat, s.MaxK, 8, 2, s.Seed, cfg)
	} else {
		res, err = linalg.SVD(mat)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	k := linalg.RankForEnergy(res.S, s.energy())
	if s.MaxK > 0 && k > s.MaxK {
		k = s.MaxK
	}
	if obs.Enabled() {
		obsSVDRank.Set(int64(k))
	}
	uk, sk, vk := res.Truncate(k)

	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(m))
	meta = binary.AppendUvarint(meta, uint64(n))
	meta = binary.AppendUvarint(meta, uint64(k))

	vals := make([]float64, 0, k+m*k+n*k)
	vals = append(vals, sk...)
	vals = append(vals, uk.Data...)
	vals = append(vals, vk.Data...)
	return &Rep{Model: s.Name(), Dims: append([]int(nil), f.Dims...), Meta: meta, Values: vals}, nil
}

func reconstructSVD(rep *Rep, dst *grid.Field, cfg parallel.Config) error {
	pos := 0
	next := func() (int, error) {
		v, n := binary.Uvarint(rep.Meta[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("svd: corrupt meta")
		}
		pos += n
		return int(v), nil
	}
	m, err := next()
	if err != nil {
		return err
	}
	n, err := next()
	if err != nil {
		return err
	}
	k, err := next()
	if err != nil {
		return err
	}
	if m <= 0 || n <= 0 || k <= 0 || m*n != len(dst.Data) || k > n || k > m {
		return fmt.Errorf("svd: implausible shape m=%d n=%d k=%d for dims %v", m, n, k, rep.Dims)
	}
	if len(rep.Values) != k+m*k+n*k {
		return fmt.Errorf("svd: payload %d != %d", len(rep.Values), k+m*k+n*k)
	}
	u := &linalg.Matrix{Rows: m, Cols: k, Data: rep.Values[k : k+m*k]}
	v := &linalg.Matrix{Rows: n, Cols: k, Data: rep.Values[k+m*k:]}
	_, err = linalg.Reconstruct(&linalg.Matrix{Rows: m, Cols: n, Data: dst.Data}, u, rep.Values[:k], v, cfg)
	return err
}

// SVDSpectrum returns the proportion series of the leading singular values
// of f (Fig. 8). At most maxValues entries are returned.
func SVDSpectrum(f *grid.Field, maxValues int) ([]float64, error) {
	m, n := matShape(f)
	mat, err := linalg.MatrixFromData(f.Data, m, n)
	if err != nil {
		return nil, err
	}
	res, err := linalg.SVD(mat)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range res.S {
		total += v
	}
	if total == 0 {
		return []float64{1}, nil
	}
	k := min(maxValues, len(res.S))
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = res.S[i] / total
	}
	return out, nil
}
