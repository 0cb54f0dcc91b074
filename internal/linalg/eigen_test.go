package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigenSymReference is the original At/Set cyclic Jacobi, kept verbatim as
// the bitwise oracle for the slice kernel in eigen.go.
func eigenSymReference(a *Matrix) (eigenvalues []float64, eigenvectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("linalg: EigenSym requires a square matrix")
	}
	n := a.Rows
	scale := a.FrobeniusNorm()
	tol := 1e-9 * (scale + 1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, errors.New("linalg: EigenSym input not symmetric")
			}
		}
	}

	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= 1e-14*(scale+1e-300) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)+1e-300) {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
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

				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val > pairs[j].val })

	eigenvalues = make([]float64, n)
	eigenvectors = NewMatrix(n, n)
	for newIdx, p := range pairs {
		eigenvalues[newIdx] = p.val
		for k := 0; k < n; k++ {
			eigenvectors.Set(k, newIdx, v.At(k, p.idx))
		}
	}
	return eigenvalues, eigenvectors, nil
}

// gram returns b·bᵀ, symmetric positive semi-definite.
func gram(b *Matrix) *Matrix {
	g, _ := b.Mul(b.T())
	return g
}

// symmetricPart returns (b + bᵀ)/2, symmetric and indefinite.
func symmetricPart(b *Matrix) *Matrix {
	s := NewMatrix(b.Rows, b.Cols)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s.Set(i, j, (b.At(i, j)+b.At(j, i))/2)
		}
	}
	return s
}

// hilbert returns the n×n Hilbert matrix, condition number ~e^(3.5n).
func hilbert(n int) *Matrix {
	h := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	return h
}

// withSpectrum returns Q·diag(vals)·Qᵀ for an orthogonal Q drawn from rng.
func withSpectrum(rng *rand.Rand, vals []float64) *Matrix {
	n := len(vals)
	r, err := SVD(randomMatrix(rng, n, n))
	if err != nil {
		panic(err)
	}
	q := r.U
	out := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += q.At(i, k) * vals[k] * q.At(j, k)
			}
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}

// smoothMatrix is a rows×cols field with a geometrically decaying
// spectrum: eight separable cosine modes with amplitudes 1, 1/3, 1/9, ...
func smoothMatrix(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		x := float64(i) / float64(rows)
		for j := 0; j < cols; j++ {
			y := float64(j) / float64(cols)
			s, amp := 0.0, 1.0
			for k := 1; k <= 8; k++ {
				s += amp * math.Cos(math.Pi*float64(k)*x) * math.Cos(math.Pi*float64(k+1)*y+0.3*float64(k))
				amp /= 3
			}
			m.Data[i*cols+j] = s
		}
	}
	return m
}

func diagonal(vals ...float64) *Matrix {
	d := NewMatrix(len(vals), len(vals))
	for i, v := range vals {
		d.Set(i, i, v)
	}
	return d
}

// TestEigenSymMatchesReferenceBitwise: the slice kernel keeps the rotation
// order, the skip tests, every rotated element's expression and the
// off-norm sum, so eigenvalues and eigenvectors equal the At/Set reference
// bit for bit.
func TestEigenSymMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	repeated := make([]float64, 24)
	for i := range repeated {
		repeated[i] = float64(1 + i%3) // three eigenvalues, eight times each
	}
	graded := make([]float64, 30)
	for i := range graded {
		graded[i] = math.Pow(10, -float64(i)/2)
	}
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"1x1", diagonal(-2.5)},
		{"zero-5", NewMatrix(5, 5)},
		{"diag", diagonal(3, 0, -7, 1e-300, 7, 2)},
		{"gram-13", gram(randMatrix(rng, 13, 13))},
		{"gram-rank2-20", gram(randMatrix(rng, 20, 2))},
		{"indefinite-33", symmetricPart(randMatrix(rng, 33, 33))},
		{"hilbert-12", hilbert(12)},
		{"graded-30", withSpectrum(rng, graded)},
		{"repeated-24", withSpectrum(rng, repeated)},
		{"identity-9", Identity(9)},
		{"cov-ramp-1600x40", CovarianceWorkers(rampMatrix(1600, 40), 1)},
		{"cov-smooth-4096x64", CovarianceWorkers(smoothMatrix(4096, 64), 1)},
		{"cov-rand-300x64", CovarianceWorkers(randMatrix(rng, 300, 64), 1)},
		{"gram-70", gram(randMatrix(rng, 70, 70))},
		{"indefinite-70", symmetricPart(randMatrix(rng, 70, 70))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orig := c.a.Clone()
			wantVals, wantVecs, err := eigenSymReference(c.a)
			if err != nil {
				t.Fatal(err)
			}
			gotVals, gotVecs, err := EigenSym(c.a)
			if err != nil {
				t.Fatal(err)
			}
			requireBitwiseSlice(t, "eigenvalues", wantVals, gotVals)
			requireBitwiseEqual(t, "eigenvectors", wantVecs, gotVecs)
			requireBitwiseEqual(t, "input", orig, c.a)
		})
	}
}

// BenchmarkEigenSym times the PCA eigen-solve on the covariance of smooth
// fields at the precond-zfp (4096×64) and model-select (1600×40)
// matricizations.
func BenchmarkEigenSym(b *testing.B) {
	for _, s := range []struct{ rows, cols int }{{4096, 64}, {1600, 40}} {
		cov := CovarianceWorkers(smoothMatrix(s.rows, s.cols), 1)
		b.Run(fmt.Sprintf("cov%dx%d", s.rows, s.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := EigenSym(cov); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
