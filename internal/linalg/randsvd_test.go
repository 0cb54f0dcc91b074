package linalg

import (
	"math"
	"math/rand"
	"testing"

	"lrm/internal/parallel"
)

func TestQRReconstructionAndOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{8, 8}, {20, 5}, {12, 12}, {30, 3}} {
		a := randomMatrix(rng, shape[0], shape[1])
		q, r, err := QR(a)
		if err != nil {
			t.Fatal(err)
		}
		// Q R = A.
		qr, _ := q.Mul(r, parallel.Config{})
		if d := qr.MaxAbsDiff(a); d > 1e-10 {
			t.Fatalf("%v: QR reconstruction error %v", shape, d)
		}
		// QᵀQ = I.
		qtq, _ := q.T().Mul(q, parallel.Config{})
		if d := qtq.MaxAbsDiff(Identity(q.Cols)); d > 1e-10 {
			t.Fatalf("%v: Q not orthonormal (%v)", shape, d)
		}
		// R upper triangular.
		for i := 1; i < r.Rows; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("%v: R not upper triangular", shape)
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns: the second must become a zero column, not NaN.
	a, _ := MatrixFromData([]float64{
		1, 1,
		2, 2,
		3, 3,
	}, 3, 2)
	q, r, err := QR(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.At(1, 1) > 1e-10 {
		t.Fatalf("rank-deficient R11 = %v", r.At(1, 1))
	}
	for i := 0; i < 3; i++ {
		if math.IsNaN(q.At(i, 1)) {
			t.Fatal("NaN in Q for rank-deficient input")
		}
	}
}

func TestQRShapeError(t *testing.T) {
	if _, _, err := QR(NewMatrix(3, 5)); err == nil {
		t.Fatal("expected rows<cols rejection")
	}
}

func TestRandSVDExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Exactly rank-3 matrix.
	u := randomMatrix(rng, 60, 3)
	v := randomMatrix(rng, 3, 24)
	a, _ := u.Mul(v, parallel.Config{})
	res, err := RandSVD(a, 3, 5, 1, 7, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(NewMatrix(res.U.Rows, res.V.Rows), res.U, res.S, res.V, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxAbsDiff(a); d > 1e-8*(a.FrobeniusNorm()+1) {
		t.Fatalf("rank-3 RandSVD reconstruction error %v", d)
	}
}

func TestRandSVDMatchesExactLeadingValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 50, 20)
	// Impose spectral decay so the leading subspace is well separated.
	exact, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := range exact.S {
		exact.S[j] *= math.Pow(0.5, float64(j))
	}
	b, err := Reconstruct(NewMatrix(exact.U.Rows, exact.V.Rows), exact.U, exact.S, exact.V, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := RandSVD(b, 5, 8, 2, 11, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SVD(b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if rel := math.Abs(approx.S[j]-ref.S[j]) / (ref.S[j] + 1e-300); rel > 0.02 {
			t.Fatalf("sigma_%d: approx %v vs exact %v (rel %v)", j, approx.S[j], ref.S[j], rel)
		}
	}
}

func TestRandSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := randomMatrix(rng, 2, 10)
	v := randomMatrix(rng, 10, 40)
	uv, _ := u.Mul(v, parallel.Config{}) // 2x40, rank <= 2
	res, err := RandSVD(uv, 2, 4, 1, 5, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Reconstruct(NewMatrix(res.U.Rows, res.V.Rows), res.U, res.S, res.V, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rec.MaxAbsDiff(uv); d > 1e-8*(uv.FrobeniusNorm()+1) {
		t.Fatalf("wide RandSVD error %v", d)
	}
}

func TestRandSVDDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 30, 12)
	r1, err := RandSVD(a, 4, 4, 1, 99, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandSVD(a, 4, 4, 1, 99, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range r1.S {
		if r1.S[j] != r2.S[j] {
			t.Fatal("RandSVD not deterministic for fixed seed")
		}
	}
}

func TestRandSVDValidation(t *testing.T) {
	if _, err := RandSVD(&Matrix{}, 2, 2, 1, 0, parallel.Config{}); err == nil {
		t.Fatal("expected empty-matrix rejection")
	}
	if _, err := RandSVD(NewMatrix(4, 4), 0, 2, 1, 0, parallel.Config{}); err == nil {
		t.Fatal("expected rank-0 rejection")
	}
}

func TestRandSVDRankClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 10, 4)
	res, err := RandSVD(a, 99, 10, 0, 1, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.S) > 4 {
		t.Fatalf("rank not clamped: %d singular values", len(res.S))
	}
}
