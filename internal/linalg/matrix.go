// Package linalg implements the dense linear algebra used by the PCA and
// SVD reduced models: matrix products, covariance matrices, a symmetric
// Jacobi eigendecomposition, and a one-sided Jacobi thin SVD.
//
// Everything is written for correctness and clarity at the matrix sizes the
// paper exercises (matricized fields with a few hundred columns); no BLAS
// is used, stdlib only. The sharded kernels size their pool from the
// caller's parallel.Config (WorkersFor at 8 bytes per multiply-add), and
// their bits do not depend on the worker count.
package linalg

import (
	"fmt"
	"math"

	"lrm/internal/parallel"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at i*Cols+j
}

// NewMatrix returns a zero-filled rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromData wraps data (not copied) as a rows×cols matrix.
func MatrixFromData(data []float64, rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 || len(data) != rows*cols {
		return nil, fmt.Errorf("linalg: data length %d does not fit %dx%d", len(data), rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m · b, sharded by output row on cfg's budget. Every row keeps
// the serial per-element accumulation order, so the result is bitwise
// identical at any worker count.
func (m *Matrix) Mul(b *Matrix, cfg parallel.Config) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	workers := cfg.WorkersFor(8 * int64(m.Rows) * int64(m.Cols) * int64(b.Cols))
	parallel.ForShard(workers, m.Rows, func(_, lo, hi int) {
		mulRows(m, b, out, lo, hi)
	})
	return out, nil
}

// mulRows computes output rows [lo, hi) of m · b. Disjoint row ranges
// touch disjoint output memory, so shards never conflict.
func mulRows(m, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

// Sub returns m - b.
func (m *Matrix) Sub(b *Matrix) (*Matrix, error) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// Col returns column j as a slice copy.
func (m *Matrix) Col(j int) []float64 {
	c := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		c[i] = m.At(i, j)
	}
	return c
}

// MaxAbsDiff returns the largest absolute element-wise difference.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return math.Inf(1)
	}
	d := 0.0
	for i := range m.Data {
		if v := math.Abs(m.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// ColumnMeans returns the mean of each column of m.
func ColumnMeans(m *Matrix) []float64 {
	means := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(m.Rows)
	}
	return means
}

// CenterColumns subtracts means[j] from every element of column j in place.
func CenterColumns(m *Matrix, means []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] -= means[j]
		}
	}
}

// Covariance returns the Cols×Cols sample covariance matrix of the columns
// of m (columns are variables, rows are observations), sharded on cfg's
// budget. m is not modified. Each cov entry accumulates its observation
// terms in ascending row order (skipping zero left factors, which also
// keeps -0.0 accumulators intact), so the result is bitwise identical at
// any worker count.
func Covariance(m *Matrix, cfg parallel.Config) *Matrix {
	means := ColumnMeans(m)
	n := m.Cols
	cov := NewMatrix(n, n)
	denom := float64(m.Rows - 1)
	if m.Rows < 2 {
		denom = 1
	}
	workers := cfg.WorkersFor(8 * (int64(m.Rows) * int64(n) * int64(n) / 2))
	// Center once (elementwise, order-free), then accumulate each
	// upper-triangle row a on its own: the inner i-ascending sum per
	// (a, b) is the same sequence of additions at any worker count.
	centered := make([]float64, m.Rows*n)
	parallel.ForShard(workers, m.Rows, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			src := m.Data[i*n : (i+1)*n]
			dst := centered[i*n : (i+1)*n]
			for j := range src {
				dst[j] = src[j] - means[j]
			}
		}
	})
	// Row a costs Rows·(n−a) multiply-adds, so equal bands of rows would
	// leave the first worker most of the work (about 75% at two workers).
	// Rows are handed out one at a time through For's shared cursor
	// instead, heaviest first.
	parallel.For(workers, n, func(a int) {
		covTriangleRow(cov.Data[a*n+a:(a+1)*n], centered[a:], n, m.Rows)
	})
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			v := cov.At(a, b) / denom
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// covTriangleRow adds Σ_i c[i*n]·c[i*n+b] into crow[b] for every b, over
// ascending i, skipping the terms whose c[i*n] is zero; c starts at column
// a of the centered rows and crow at cov(a, a). Four observations are
// folded per pass through a register accumulator, one rounded += at a
// time, so each entry sees exactly the serial sequence of additions.
func covTriangleRow(crow, c []float64, n, rows int) {
	w := len(crow)
	i := 0
	for ; i+4 <= rows; i += 4 {
		r0, r1 := c[i*n:][:w], c[(i+1)*n:][:w]
		r2, r3 := c[(i+2)*n:][:w], c[(i+3)*n:][:w]
		v0, v1, v2, v3 := r0[0], r1[0], r2[0], r3[0]
		if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
			covAxpy(crow, r0, v0)
			covAxpy(crow, r1, v1)
			covAxpy(crow, r2, v2)
			covAxpy(crow, r3, v3)
			continue
		}
		for b, t := range crow {
			t += v0 * r0[b]
			t += v1 * r1[b]
			t += v2 * r2[b]
			t += v3 * r3[b]
			crow[b] = t
		}
	}
	for ; i < rows; i++ {
		r := c[i*n:][:w]
		covAxpy(crow, r, r[0])
	}
}

// covAxpy adds va·r[b] into crow[b], or nothing when va is zero (which also
// leaves a −0 accumulator intact).
func covAxpy(crow, r []float64, va float64) {
	if va == 0 {
		return
	}
	r = r[:len(crow)]
	for b, x := range r {
		crow[b] += va * x
	}
}
