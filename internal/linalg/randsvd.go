package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// QR computes a thin QR factorisation of a (m >= n required) by modified
// Gram-Schmidt: a = Q·R with Q m×n orthonormal columns and R n×n upper
// triangular. Rank-deficient columns yield zero columns in Q (and zero
// diagonal in R).
func QR(a *Matrix) (q, r *Matrix, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, nil, fmt.Errorf("linalg: QR needs rows >= cols, got %dx%d", m, n)
	}
	q = a.Clone()
	r = NewMatrix(n, n)
	// Columns whose residual is pure roundoff must become exact zero
	// columns: normalising numerical noise would produce directions that
	// are not orthogonal to the span already built.
	dropTol := 1e-12 * (a.FrobeniusNorm() + 1e-300)
	for j := 0; j < n; j++ {
		// Normalise column j.
		norm := 0.0
		for i := 0; i < m; i++ {
			v := q.At(i, j)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm <= dropTol {
			for i := 0; i < m; i++ {
				q.Set(i, j, 0)
			}
			r.Set(j, j, 0)
			continue
		}
		r.Set(j, j, norm)
		inv := 1 / norm
		for i := 0; i < m; i++ {
			q.Set(i, j, q.At(i, j)*inv)
		}
		// Orthogonalise the remaining columns against it.
		for k := j + 1; k < n; k++ {
			dot := 0.0
			for i := 0; i < m; i++ {
				dot += q.At(i, j) * q.At(i, k)
			}
			r.Set(j, k, dot)
			for i := 0; i < m; i++ {
				q.Set(i, k, q.At(i, k)-dot*q.At(i, j))
			}
		}
	}
	return q, r, nil
}

// RandSVD computes an approximate rank-k SVD of a using the randomized
// range finder of Halko, Martinsson & Tropp (2011): sample Y = (A·Aᵀ)^p A Ω
// with a Gaussian test matrix Ω (k + oversample columns), orthonormalise to
// Q, and solve the small exact SVD of QᵀA. Cost is O(mn(k+p)) instead of
// the full O(mn²) one-sided Jacobi — the speed lever for PCA/SVD
// preconditioning at scale (the paper's "reduce the compression overhead"
// future work).
//
// The seed makes the factorisation deterministic, which the compression
// pipeline requires for reproducible archives. a is not modified.
func RandSVD(a *Matrix, k, oversample, powerIters int, seed int64) (*SVDResult, error) {
	if a.Rows == 0 || a.Cols == 0 {
		return nil, errors.New("linalg: RandSVD of empty matrix")
	}
	if k < 1 {
		return nil, fmt.Errorf("linalg: RandSVD rank %d", k)
	}
	if a.Rows < a.Cols {
		r, err := RandSVD(a.T(), k, oversample, powerIters, seed)
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}
	n := a.Cols
	if oversample < 0 {
		oversample = 0
	}
	l := k + oversample
	if l > n {
		l = n
	}

	// Y = A * Omega.
	rng := rand.New(rand.NewSource(seed))
	omega := NewMatrix(n, l)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	y, err := a.Mul(omega)
	if err != nil {
		return nil, err
	}
	// Power iterations sharpen the spectrum: Y <- A (Aᵀ Y), with
	// re-orthonormalisation for numerical stability.
	at := a.T()
	for p := 0; p < powerIters; p++ {
		q, _, err := QR(y)
		if err != nil {
			return nil, err
		}
		z, err := at.Mul(q)
		if err != nil {
			return nil, err
		}
		qz, _, err := QR(z)
		if err != nil {
			return nil, err
		}
		y, err = a.Mul(qz)
		if err != nil {
			return nil, err
		}
	}
	q, _, err := QR(y)
	if err != nil {
		return nil, err
	}

	// B = Qᵀ A is small (l x n); factor it exactly.
	b, err := q.T().Mul(a)
	if err != nil {
		return nil, err
	}
	small, err := SVD(b)
	if err != nil {
		return nil, err
	}
	// U = Q * U_b.
	u, err := q.Mul(small.U)
	if err != nil {
		return nil, err
	}
	res := &SVDResult{U: u, S: small.S, V: small.V}
	// Trim to the requested rank.
	uk, sk, vk := res.Truncate(k)
	return &SVDResult{U: uk, S: sk, V: vk}, nil
}
