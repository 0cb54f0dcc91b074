package reduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"lrm/internal/grid"
	"lrm/internal/linalg"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// obsPCARank reports the rank retained by the most recent PCA fit (per
// column block for the partitioned variant).
var obsPCARank = obs.GetGauge("reduce.pca.rank")

// PCA is the principal-component-analysis reduced model (Section V-A.1):
// the data is matricized, the covariance of its columns eigendecomposed,
// and the k leading eigenvectors plus the projected scores retained as the
// reduced representation. k is the smallest count capturing Energy of the
// variance (the paper's 95% rule).
type PCA struct {
	// Energy is the variance fraction to capture; 0 defaults to 0.95.
	Energy float64
	// MaxK caps the component count; 0 means no cap.
	MaxK int
	// BlockCols > 0 enables the partitioned-matrix variant (the paper's
	// first future-work direction): columns are processed in independent
	// blocks of this width, shrinking the covariance solve from O(n^3) to
	// O(n * BlockCols^2) at a small representation-quality cost.
	BlockCols int
}

// Name implements Model.
func (p PCA) Name() string {
	if p.BlockCols > 0 {
		return fmt.Sprintf("pca(e=%.2f,bc=%d)", p.energy(), p.BlockCols)
	}
	return fmt.Sprintf("pca(e=%.2f)", p.energy())
}

func (p PCA) energy() float64 {
	if p.Energy <= 0 || p.Energy > 1 {
		return 0.95
	}
	return p.Energy
}

func init() { register("pca", reconstructPCA) }

// Fit implements Model. The unpartitioned fit is the one-block case of the
// partitioned one: the meta is (m, n, blocks) then (w, k) per block, and
// the values are each block's means, eigenvectors and scores in turn.
func (p PCA) Fit(ctx context.Context, f *grid.Field, cfg parallel.Config) (*Rep, error) {
	if err := checkFinite(f); err != nil {
		return nil, err
	}
	m, n := matShape(f)
	bc := n
	if p.BlockCols > 0 && p.BlockCols < n {
		bc = p.BlockCols
	}

	var meta []byte
	meta = binary.AppendUvarint(meta, uint64(m))
	meta = binary.AppendUvarint(meta, uint64(n))
	meta = binary.AppendUvarint(meta, uint64((n+bc-1)/bc))

	var vals []float64
	for lo := 0; lo < n; lo += bc {
		hi := min(lo+bc, n)
		w := hi - lo
		// pcaFactor centers the block in place, so it works on a copy:
		// arena scratch, fully written by the row copies below and
		// released once the scores are out.
		block := &linalg.Matrix{Rows: m, Cols: w, Data: parallel.Floats(m * w)}
		for r := 0; r < m; r++ {
			copy(block.Data[r*w:(r+1)*w], f.Data[r*n+lo:r*n+hi])
		}
		means, vecs, k, scores, err := pcaFactor(ctx, block, p.energy(), p.MaxK, cfg)
		parallel.PutFloats(block.Data)
		if err != nil {
			return nil, err
		}
		meta = binary.AppendUvarint(meta, uint64(w))
		meta = binary.AppendUvarint(meta, uint64(k))
		vals = slices.Grow(vals, len(means)+len(vecs)+len(scores))
		vals = append(vals, means...)
		vals = append(vals, vecs...)
		vals = append(vals, scores...)
	}
	return &Rep{Model: p.Name(), Dims: append([]int(nil), f.Dims...), Meta: meta, Values: vals}, nil
}

// pcaEigen centers mat's columns in place and eigendecomposes their
// covariance, returning the column means and the descending spectrum with
// its eigenvectors.
func pcaEigen(ctx context.Context, mat *linalg.Matrix, cfg parallel.Config) ([]float64, []float64, *linalg.Matrix, error) {
	means := linalg.ColumnMeans(mat)
	linalg.CenterColumns(mat, means)
	_, sp := trace.Start(ctx, "reduce.covariance")
	cov := linalg.Covariance(mat, cfg) // already centered; means now ~0
	sp.End()
	_, sp = trace.Start(ctx, "reduce.eigen")
	eigvals, eigvecs, err := linalg.EigenSym(cov)
	sp.SetError(err)
	sp.End()
	return means, eigvals, eigvecs, err
}

// pcaFactor runs the covariance eigen-solve on one column block and returns
// (means, flattened n x k eigenvectors, k, flattened m x k scores).
func pcaFactor(ctx context.Context, mat *linalg.Matrix, energy float64, maxK int, cfg parallel.Config) ([]float64, []float64, int, []float64, error) {
	m, n := mat.Rows, mat.Cols
	means, eigvals, eigvecs, err := pcaEigen(ctx, mat, cfg)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	k := linalg.RankForEnergy(eigvals, energy)
	if maxK > 0 && k > maxK {
		k = maxK
	}
	if obs.Enabled() {
		obsPCARank.Set(int64(k))
	}
	// Retain the top-k eigenvectors (columns of eigvecs).
	vecs := make([]float64, n*k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			vecs[i*k+j] = eigvecs.At(i, j)
		}
	}
	// Scores: centered data projected onto the components (m x k). Rows
	// project independently (each with the serial accumulation order), so
	// the shards produce bitwise-identical scores at any worker count.
	scores := make([]float64, m*k)
	parallel.ForShard(cfg.WorkersFor(8*int64(m)*int64(n)*int64(k)), m, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := mat.Data[r*n : (r+1)*n]
			for j := 0; j < k; j++ {
				s := 0.0
				for i := 0; i < n; i++ {
					s += row[i] * vecs[i*k+j]
				}
				scores[r*k+j] = s
			}
		}
	})
	return means, vecs, k, scores, nil
}

func reconstructPCA(rep *Rep, dst *grid.Field, cfg parallel.Config) error {
	pos := 0
	next := func() (int, error) {
		v, n := binary.Uvarint(rep.Meta[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("pca: corrupt meta")
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
	nBlocks, err := next()
	if err != nil {
		return err
	}
	if m <= 0 || n <= 0 || m*n != len(dst.Data) || nBlocks <= 0 || nBlocks > n {
		return fmt.Errorf("pca: implausible shape m=%d n=%d blocks=%d for dims %v", m, n, nBlocks, rep.Dims)
	}

	vpos := 0
	col := 0
	for b := 0; b < nBlocks; b++ {
		w, err := next()
		if err != nil {
			return err
		}
		k, err := next()
		if err != nil {
			return err
		}
		if w <= 0 || k <= 0 || k > w || col+w > n {
			return fmt.Errorf("pca: implausible block w=%d k=%d", w, k)
		}
		need := w + w*k + m*k
		if vpos+need > len(rep.Values) {
			return fmt.Errorf("pca: payload exhausted")
		}
		means := rep.Values[vpos : vpos+w]
		vecs := rep.Values[vpos+w : vpos+w+w*k]
		scores := rep.Values[vpos+w+w*k : vpos+need]
		vpos += need

		// Rows reconstruct independently; shards write disjoint output rows.
		parallel.ForShard(cfg.WorkersFor(8*int64(m)*int64(w)*int64(k)), m, func(_, lo, hi int) {
			pcaRows(dst.Data, n, col, means, vecs, scores, k, lo, hi)
		})
		col += w
	}
	if col != n {
		return fmt.Errorf("pca: blocks cover %d of %d columns", col, n)
	}
	if vpos != len(rep.Values) {
		return fmt.Errorf("pca: %d unread payload values", len(rep.Values)-vpos)
	}
	return nil
}

// pcaRows writes rows [lo, hi) of X_hat = scores * vecs^T + means into
// columns [col, col+len(means)) of out (row stride n). Each row starts as
// a copy of the means and gains one scaled component row at a time, so
// every element still sums means[i] + s0*v0 + s1*v1 + ... in the order of
// the per-element dot product, with the same bits, while the inner loop
// is a contiguous axpy over the row.
func pcaRows(out []float64, n, col int, means, vecs, scores []float64, k, lo, hi int) {
	w := len(means)
	for r := lo; r < hi; r++ {
		row := out[r*n+col : r*n+col+w]
		copy(row, means)
		for j, s := range scores[r*k : (r+1)*k] {
			for i := range row {
				row[i] += s * vecs[i*k+j]
			}
		}
	}
}

// PCASpectrum returns the proportion-of-variance series of the leading
// principal components of f (Fig. 7). At most maxComponents are returned.
func PCASpectrum(f *grid.Field, maxComponents int) ([]float64, error) {
	m, n := matShape(f)
	mat := &linalg.Matrix{Rows: m, Cols: n, Data: slices.Clone(f.Data)}
	_, eigvals, _, err := pcaEigen(context.Background(), mat, parallel.Config{})
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range eigvals {
		if v > 0 {
			total += v
		}
	}
	if total == 0 {
		return []float64{1}, nil
	}
	k := min(maxComponents, len(eigvals))
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		v := eigvals[i]
		if v < 0 {
			v = 0
		}
		out[i] = v / total
	}
	return out, nil
}
