package linalg

import (
	"errors"
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi rotation method. It returns eigenvalues in descending order
// and the matching eigenvectors as the COLUMNS of the returned matrix.
//
// Jacobi is quadratically convergent and unconditionally stable for
// symmetric input, which is exactly the covariance-matrix case PCA needs.
//
// The sweep runs on raw slices. The working matrix W is kept in full (it is
// symmetric only up to roundoff once rotations start) and row-major, so the
// row half of each two-sided rotation walks two contiguous rows; only its
// column half is strided. The accumulated V is column-major, so its update
// walks two contiguous columns. Rotation order, skip tests, the off-norm
// sum and every rotated element's c·x − s·y / s·x + c·y are those of the
// textbook At/Set sweep, so the result is bitwise the same.
func EigenSym(a *Matrix) (eigenvalues []float64, eigenvectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	// Verify symmetry up to roundoff so silent garbage can't escape.
	scale := a.FrobeniusNorm()
	tol := 1e-9 * (scale + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.Data[i*n+j]-a.Data[j*n+i]) > tol {
				return nil, nil, errors.New("linalg: EigenSym input not symmetric")
			}
		}
	}

	w := append([]float64(nil), a.Data...) // row-major, W(i,j) at w[i*n+j]
	v := make([]float64, n*n)              // column-major, V(k,j) at v[j*n+k]
	for j := 0; j < n; j++ {
		v[j*n+j] = 1
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, x := range w[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if math.Sqrt(2*off) <= 1e-14*(scale+1e-300) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p*n+q]
				if apq == 0 {
					continue
				}
				app := w[p*n+p]
				aqq := w[q*n+q]
				// Skip rotations that are pure roundoff.
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)+1e-300) {
					w[p*n+q] = 0
					w[q*n+p] = 0
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				eigenRotate(w, v, n, p, q, c, s)
			}
		}
	}

	// Collect and sort by descending eigenvalue.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w[i*n+i], i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	eigenvalues = make([]float64, n)
	eigenvectors = NewMatrix(n, n)
	for newIdx, p := range pairs {
		eigenvalues[newIdx] = p.val
		for k, x := range v[p.idx*n : (p.idx+1)*n] {
			eigenvectors.Data[k*n+newIdx] = x
		}
	}
	return eigenvalues, eigenvectors, nil
}

// eigenRotate applies the Jacobi rotation G(p, q) to both sides of the
// row-major n×n w — columns p and q first, then rows p and q — and
// accumulates it into columns p and q of the column-major v. Every element
// becomes c·x − s·y or s·x + c·y of its old (x, y) pair.
func eigenRotate(w, v []float64, n, p, q int, c, s float64) {
	for i := p; i < len(w); i += n {
		x, y := w[i], w[i+q-p]
		w[i] = c*x - s*y
		w[i+q-p] = s*x + c*y
	}
	planeRotate(w[p*n:(p+1)*n], w[q*n:(q+1)*n], c, s)
	planeRotate(v[p*n:(p+1)*n], v[q*n:(q+1)*n], c, s)
}

// planeRotate sets (x, y) ← (c·x − s·y, s·x + c·y) element-wise.
func planeRotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}
