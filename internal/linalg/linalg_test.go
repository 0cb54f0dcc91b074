package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrm/internal/parallel"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Fatal("transpose broken")
	}
	if _, err := MatrixFromData(make([]float64, 5), 2, 3); err == nil {
		t.Fatal("expected shape error")
	}
	col := m.Col(2)
	if len(col) != 2 || col[1] != 5 {
		t.Fatalf("Col = %v", col)
	}
}

func TestMulAgainstHand(t *testing.T) {
	a, _ := MatrixFromData([]float64{1, 2, 3, 4}, 2, 2)
	b, _ := MatrixFromData([]float64{5, 6, 7, 8}, 2, 2)
	c, err := a.Mul(b, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Mul[%d]=%v, want %v", i, c.Data[i], v)
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3), parallel.Config{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestMulIdentityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		m := randomMatrix(rng, rows, cols)
		p, err := m.Mul(Identity(cols), parallel.Config{})
		if err != nil {
			return false
		}
		return p.MaxAbsDiff(m) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSubAndNorm(t *testing.T) {
	a, _ := MatrixFromData([]float64{3, 4}, 1, 2)
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("norm = %v, want 5", got)
	}
	d, err := a.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if d.FrobeniusNorm() != 0 {
		t.Fatal("a-a != 0")
	}
	if _, err := a.Sub(NewMatrix(2, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestColumnMeansAndCenter(t *testing.T) {
	m, _ := MatrixFromData([]float64{
		1, 10,
		3, 20,
		5, 30,
	}, 3, 2)
	means := ColumnMeans(m)
	if means[0] != 3 || means[1] != 20 {
		t.Fatalf("means = %v", means)
	}
	CenterColumns(m, means)
	means2 := ColumnMeans(m)
	if math.Abs(means2[0]) > 1e-15 || math.Abs(means2[1]) > 1e-15 {
		t.Fatalf("after centering means = %v", means2)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns: cov matrix is rank 1.
	m, _ := MatrixFromData([]float64{
		1, 2,
		2, 4,
		3, 6,
		4, 8,
	}, 4, 2)
	cov := Covariance(m, parallel.Config{})
	// var(col0) = 5/3; cov = 10/3; var(col1) = 20/3 (sample, n-1).
	if math.Abs(cov.At(0, 0)-5.0/3) > 1e-12 ||
		math.Abs(cov.At(0, 1)-10.0/3) > 1e-12 ||
		math.Abs(cov.At(1, 1)-20.0/3) > 1e-12 {
		t.Fatalf("cov = %v", cov.Data)
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Fatal("covariance not symmetric")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := MatrixFromData([]float64{
		3, 0, 0,
		0, 7, 0,
		0, 0, 1,
	}, 3, 3)
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, 1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", vals, want)
		}
	}
	// Eigenvector for 7 must be ±e1.
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-12 {
		t.Fatalf("top eigenvector = %v", vecs.Col(0))
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a, _ := MatrixFromData([]float64{2, 1, 1, 2}, 2, 2)
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Check A v = λ v for the top pair.
	for r := 0; r < 2; r++ {
		av := a.At(r, 0)*vecs.At(0, 0) + a.At(r, 1)*vecs.At(1, 0)
		if math.Abs(av-3*vecs.At(r, 0)) > 1e-12 {
			t.Fatalf("A·v != λ·v at row %d", r)
		}
	}
}

func TestEigenSymRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		n := 5 + trial*7
		b := randomMatrix(rng, n, n)
		// a = b bᵀ is symmetric positive semi-definite.
		a, err := b.Mul(b.T(), parallel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		vals, vecs, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// All eigenvalues of b bᵀ are >= 0.
		for _, v := range vals {
			if v < -1e-8 {
				t.Fatalf("negative eigenvalue %v for PSD matrix", v)
			}
		}
		// Orthogonality: VᵀV = I.
		vtv, _ := vecs.T().Mul(vecs, parallel.Config{})
		if d := vtv.MaxAbsDiff(Identity(n)); d > 1e-8 {
			t.Fatalf("VᵀV deviates from I by %v", d)
		}
		// Reconstruction: V diag(vals) Vᵀ = a.
		lam := NewMatrix(n, n)
		for i, v := range vals {
			lam.Set(i, i, v)
		}
		tmp, _ := vecs.Mul(lam, parallel.Config{})
		rec, _ := tmp.Mul(vecs.T(), parallel.Config{})
		if d := rec.MaxAbsDiff(a); d > 1e-7*(a.FrobeniusNorm()+1) {
			t.Fatalf("n=%d: eigen reconstruction error %v", n, d)
		}
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	a, _ := MatrixFromData([]float64{1, 2, 3, 4}, 2, 2)
	if _, _, err := EigenSym(a); err == nil {
		t.Fatal("expected non-symmetric error")
	}
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestSVDIdentityAndDiagonal(t *testing.T) {
	r, err := SVD(Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.S {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("S = %v, want all ones", r.S)
		}
	}
	d, _ := MatrixFromData([]float64{
		0, 5,
		2, 0,
	}, 2, 2)
	r, err = SVD(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.S[0]-5) > 1e-12 || math.Abs(r.S[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v, want [5 2]", r.S)
	}
}

func svdChecks(t *testing.T, a *Matrix) {
	t.Helper()
	r, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	// Descending non-negative.
	for i, s := range r.S {
		if s < 0 {
			t.Fatalf("negative singular value %v", s)
		}
		if i > 0 && r.S[i] > r.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", r.S)
		}
	}
	// Full reconstruction.
	rec, err := Reconstruct(NewMatrix(r.U.Rows, r.V.Rows), r.U, r.S, r.V, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxAbsDiff(a); d > 1e-8*(a.FrobeniusNorm()+1) {
		t.Fatalf("SVD reconstruction error %v (%dx%d)", d, a.Rows, a.Cols)
	}
	// V orthogonal.
	vtv, _ := r.V.T().Mul(r.V, parallel.Config{})
	if d := vtv.MaxAbsDiff(Identity(r.V.Cols)); d > 1e-8 {
		t.Fatalf("VᵀV deviates from I by %v", d)
	}
}

func TestSVDRandomTallAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	svdChecks(t, randomMatrix(rng, 20, 6))
	svdChecks(t, randomMatrix(rng, 6, 20)) // wide path via transpose
	svdChecks(t, randomMatrix(rng, 13, 13))
	svdChecks(t, randomMatrix(rng, 1, 5))
	svdChecks(t, randomMatrix(rng, 5, 1))
}

func TestSVDLowRankTruncation(t *testing.T) {
	// Build an exactly rank-2 matrix; rank-2 truncation must reproduce it.
	rng := rand.New(rand.NewSource(5))
	u := randomMatrix(rng, 12, 2)
	v := randomMatrix(rng, 2, 7)
	a, _ := u.Mul(v, parallel.Config{})
	r, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(r.S); i++ {
		if r.S[i] > 1e-8*r.S[0] {
			t.Fatalf("rank-2 matrix has significant sigma_%d = %v", i, r.S[i])
		}
	}
	uk, sk, vk := r.Truncate(2)
	rec, err := Reconstruct(NewMatrix(uk.Rows, vk.Rows), uk, sk, vk, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxAbsDiff(a); d > 1e-8*(a.FrobeniusNorm()+1) {
		t.Fatalf("rank-2 reconstruction error %v", d)
	}
}

func TestRankForEnergy(t *testing.T) {
	spec := []float64{50, 30, 15, 5}
	cases := []struct {
		frac float64
		want int
	}{
		{0.4, 1}, {0.5, 1}, {0.8, 2}, {0.95, 3}, {1.0, 4},
	}
	for _, c := range cases {
		if got := RankForEnergy(spec, c.frac); got != c.want {
			t.Fatalf("RankForEnergy(%v) = %d, want %d", c.frac, got, c.want)
		}
	}
	if got := RankForEnergy([]float64{0, 0}, 0.95); got != 1 {
		t.Fatalf("zero spectrum rank = %d, want 1", got)
	}
	if got := RankForEnergy(nil, 0.95); got != 1 {
		t.Fatalf("empty spectrum rank = %d, want 1", got)
	}
}

func TestReconstructShapeMismatch(t *testing.T) {
	if _, err := Reconstruct(NewMatrix(2, 2), NewMatrix(2, 2), []float64{1}, NewMatrix(2, 2), parallel.Config{}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSVDErrorsOnAbsurdInput(t *testing.T) {
	defer func() { recover() }()
	// NewMatrix panics on zero dims, so exercise the guard via struct literal.
	if _, err := SVD(&Matrix{Rows: 0, Cols: 0}); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}
