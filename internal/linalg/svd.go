package linalg

import (
	"errors"
	"math"
	"sort"

	"lrm/internal/parallel"
)

// SVDResult holds a thin singular value decomposition A = U · diag(S) · Vᵀ,
// with U of shape m×r, S of length r, and V of shape n×r, where
// r = min(m, n). Singular values are non-negative and descending.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// jacobiBatch is how many pairs (p, q), (p, q+1), ... share one pass over
// column p in SVD. Their dot products are independent accumulators, so the
// pass costs about as much as a single dot; the batch is cut short at the
// first pair that rotates, because that rotation changes column p.
const jacobiBatch = 4

// SVD computes a thin singular value decomposition of a using the one-sided
// Jacobi method (Hestenes): columns of a working copy of A are repeatedly
// orthogonalised by plane rotations; at convergence the column norms are the
// singular values, the normalised columns are U, and the accumulated
// rotations give V. a is not modified.
//
// The sweep runs on the tall matrix M (m×n, m ≥ n): A itself, or Aᵀ when A
// is wide, in which case the factors are swapped on return. M and V are
// held column-major, so every dot product and rotation walks two
// contiguous columns. Each column's squared norm is cached and refreshed
// by the pass that rotates the column; the off-diagonal dots of up to
// jacobiBatch successive pairs share one pass over column p, and a
// rotation's pass also yields the next pair's dot. Every sum
// still accumulates over ascending rows from +0 and every rotated element
// is still c·x − s·y or s·x + c·y, so the factors are bitwise those of the
// textbook row-major sweep that recomputes all three dots per pair.
func SVD(a *Matrix) (*SVDResult, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, errors.New("linalg: SVD of empty matrix")
	}
	wide := a.Rows < a.Cols
	m, n := a.Rows, a.Cols
	if wide {
		m, n = n, m
	}

	// Column j of M lives at w[j*m:(j+1)*m]; for a wide A those columns are
	// A's rows, already contiguous. scale sums M in row-major order.
	w := make([]float64, m*n)
	scale := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var x float64
			if wide {
				x = a.Data[j*m+i]
			} else {
				x = a.Data[i*n+j]
			}
			w[j*m+i] = x
			scale += x * x
		}
	}
	scale = math.Sqrt(scale)

	v := make([]float64, n*n) // column-major, starts as the identity
	for j := 0; j < n; j++ {
		v[j*n+j] = 1
	}
	norm := make([]float64, n) // norm[j] = Σ_i w[j*m+i]², ascending i
	for j := range norm {
		col := w[j*m : (j+1)*m]
		jacobiDots(col, col, norm[j:j+1])
	}

	var g [jacobiBatch]float64
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			wp := w[p*m : (p+1)*m]
			k, nb := 0, 0 // g[k:nb] are the current dots of pairs (p, q), (p, q+1), ...
			for q := p + 1; q < n; q++ {
				if k == nb {
					k, nb = 0, min(jacobiBatch, n-q)
					jacobiDots(wp, w[q*m:(q+nb)*m], g[:nb])
				}
				alpha, beta, gamma := norm[p], norm[q], g[k]
				k++
				if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta)+1e-300 {
					continue
				}
				rotated = true
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				wq := w[q*m : (q+1)*m]
				if q+1 < n {
					// Rotating changes column p, so the rest of the batch is
					// stale; the same pass dots the new column p with q+1.
					norm[p], norm[q], g[0] = jacobiRotateDot(wp, wq, w[(q+1)*m:(q+2)*m], c, s)
					k, nb = 0, 1
				} else {
					norm[p], norm[q] = jacobiRotate(wp, wq, c, s)
				}
				jacobiRotate(v[p*n:(p+1)*n], v[q*n:(q+1)*n], c, s)
			}
		}
		if !rotated {
			break
		}
	}

	// Singular values are the cached column norms, which are current.
	sv := norm
	for j := range sv {
		sv[j] = math.Sqrt(sv[j])
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return sv[order[i]] > sv[order[j]] })

	u := NewMatrix(m, n)
	vOut := NewMatrix(n, n)
	sOut := make([]float64, n)
	for newJ, oldJ := range order {
		sOut[newJ] = sv[oldJ]
		if sv[oldJ] > 1e-300*(scale+1) && sv[oldJ] > 0 {
			inv := 1 / sv[oldJ]
			for i, x := range w[oldJ*m : (oldJ+1)*m] {
				u.Data[i*n+newJ] = x * inv
			}
		}
		for i, x := range v[oldJ*n : (oldJ+1)*n] {
			vOut.Data[i*n+newJ] = x
		}
	}
	if wide {
		return &SVDResult{U: vOut, S: sOut, V: u}, nil
	}
	return &SVDResult{U: u, S: sOut, V: vOut}, nil
}

// jacobiDots sets g[k] = Σ_i x[i]·ys[k*len(x)+i] for the len(g) columns
// packed back to back in ys. Each sum runs over ascending i from +0; the
// four-column case keeps four independent accumulators in one pass.
func jacobiDots(x, ys, g []float64) {
	m := len(x)
	if len(g) == 4 {
		y0, y1, y2, y3 := ys[:m], ys[m:][:m], ys[2*m:][:m], ys[3*m:][:m]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += xi * y0[i]
			s1 += xi * y1[i]
			s2 += xi * y2[i]
			s3 += xi * y3[i]
		}
		g[0], g[1], g[2], g[3] = s0, s1, s2, s3
		return
	}
	for k := range g {
		y := ys[k*m : (k+1)*m]
		s := 0.0
		for i, xi := range x {
			s += xi * y[i]
		}
		g[k] = s
	}
}

// jacobiRotate applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y)
// element-wise and returns the squared norms of the rotated columns,
// accumulated over ascending i from +0.
func jacobiRotate(x, y []float64, c, s float64) (nx, ny float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		a := c*xi - s*yi
		b := s*xi + c*yi
		x[i] = a
		y[i] = b
		nx += a * a
		ny += b * b
	}
	return nx, ny
}

// jacobiRotateDot is jacobiRotate that also returns Σ_i x′[i]·z[i], the
// dot of the rotated x with z, accumulated over ascending i from +0.
func jacobiRotateDot(x, y, z []float64, c, s float64) (nx, ny, g float64) {
	y, z = y[:len(x)], z[:len(x)]
	for i, xi := range x {
		yi := y[i]
		a := c*xi - s*yi
		b := s*xi + c*yi
		x[i] = a
		y[i] = b
		nx += a * a
		ny += b * b
		g += a * z[i]
	}
	return nx, ny, g
}

// Truncate returns the rank-k factors (U m×k, S k, V n×k) of r.
// k is clamped to the available rank.
func (r *SVDResult) Truncate(k int) (*Matrix, []float64, *Matrix) {
	if k > len(r.S) {
		k = len(r.S)
	}
	if k < 1 {
		k = 1
	}
	return leadingCols(r.U, k), append([]float64(nil), r.S[:k]...), leadingCols(r.V, k)
}

// leadingCols returns a copy of the first k columns of a.
func leadingCols(a *Matrix, k int) *Matrix {
	out := NewMatrix(a.Rows, k)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*k:(i+1)*k], a.Data[i*a.Cols:i*a.Cols+k])
	}
	return out
}

// Reconstruct returns U·diag(S)·Vᵀ from possibly truncated factors, sharded
// by output row on cfg's budget. Each row keeps the serial accumulation
// order (skipping zero U·S factors), so the result is bitwise identical at
// any worker count.
func Reconstruct(u *Matrix, s []float64, v *Matrix, cfg parallel.Config) (*Matrix, error) {
	k := len(s)
	if u.Cols != k || v.Cols != k {
		return nil, errors.New("linalg: factor shape mismatch")
	}
	out := NewMatrix(u.Rows, v.Rows)
	n := out.Cols
	parallel.ForShard(cfg.WorkersFor(8*int64(u.Rows)*int64(n)*int64(k)), u.Rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			row := out.Data[r*n : (r+1)*n]
			for j, sj := range s {
				f := u.Data[r*k+j] * sj
				if f == 0 {
					continue
				}
				for i := range row {
					row[i] += f * v.Data[i*k+j]
				}
			}
		}
	})
	return out, nil
}

// RankForEnergy returns the smallest k such that the first k values of the
// (descending, non-negative) spectrum carry at least `fraction` of the total
// sum. This is the paper's 95 % rule for choosing the number of retained
// components. It returns at least 1.
func RankForEnergy(spectrum []float64, fraction float64) int {
	total := 0.0
	for _, s := range spectrum {
		if s > 0 {
			total += s
		}
	}
	if total == 0 {
		return 1
	}
	acc := 0.0
	for i, s := range spectrum {
		if s > 0 {
			acc += s
		}
		if acc/total >= fraction {
			return i + 1
		}
	}
	return len(spectrum)
}
