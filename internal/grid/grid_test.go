package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	f := New(2, 3, 4)
	if f.Rank() != 3 || f.Len() != 24 {
		t.Fatalf("rank=%d len=%d, want 3, 24", f.Rank(), f.Len())
	}
	f.Set3(7.5, 1, 2, 3)
	if got := f.At3(1, 2, 3); got != 7.5 {
		t.Fatalf("At3 = %v, want 7.5", got)
	}
	if got := f.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := f.Data[f.Index(1, 2, 3)]; got != 7.5 {
		t.Fatalf("Index path = %v, want 7.5", got)
	}
}

func TestRowMajorLayout(t *testing.T) {
	f := New(2, 3)
	f.Set2(1, 0, 0)
	f.Set2(2, 0, 1)
	f.Set2(3, 1, 0)
	want := []float64{1, 2, 0, 3, 0, 0}
	for i, v := range want {
		if f.Data[i] != v {
			t.Fatalf("Data[%d]=%v, want %v (layout not row-major)", i, f.Data[i], v)
		}
	}
}

func TestFromDataValidation(t *testing.T) {
	if _, err := FromData(make([]float64, 5), 2, 3); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := FromData(nil, 0); err == nil {
		t.Fatal("expected non-positive extent error")
	}
	if _, err := FromData(make([]float64, 16), 2, 2, 2, 2); err == nil {
		t.Fatal("expected rank error")
	}
	f, err := FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.At2(1, 2) != 6 {
		t.Fatalf("At2(1,2)=%v, want 6", f.At2(1, 2))
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(4)
	f.Data[0] = 1
	g := f.Clone()
	g.Data[0] = 2
	if f.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestPlaneAndRow(t *testing.T) {
	f := New(3, 2, 2)
	for k := 0; k < 3; k++ {
		for j := 0; j < 2; j++ {
			for i := 0; i < 2; i++ {
				f.Set3(float64(100*k+10*j+i), k, j, i)
			}
		}
	}
	p := f.Plane(1)
	if p.Rank() != 2 || p.Dims[0] != 2 || p.Dims[1] != 2 {
		t.Fatalf("plane dims = %v", p.Dims)
	}
	if p.At2(1, 1) != 111 {
		t.Fatalf("plane(1)[1][1]=%v, want 111", p.At2(1, 1))
	}
	// Plane must be a copy.
	p.Set2(-1, 0, 0)
	if f.At3(1, 0, 0) == -1 {
		t.Fatal("Plane shares storage with parent field")
	}

	m := New(2, 3)
	m.Set2(42, 1, 2)
	r := m.Row(1)
	if r.Rank() != 1 || r.Dims[0] != 3 || r.Data[2] != 42 {
		t.Fatalf("row = %v %v", r.Dims, r.Data)
	}
}

func TestMatricize(t *testing.T) {
	f := New(3, 4, 5)
	m, n := f.Matricize()
	if m != 12 || n != 5 {
		t.Fatalf("matricize 3x4x5 = %dx%d, want 12x5", m, n)
	}
	g := New(7)
	m, n = g.Matricize()
	if m != 1 || n != 7 {
		t.Fatalf("matricize rank-1 = %dx%d, want 1x7", m, n)
	}
}

func TestSubAddRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := New(4, 4)
	g := New(4, 4)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
		g.Data[i] = rng.NormFloat64()
	}
	d, err := f.Sub(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddInPlace(g); err != nil {
		t.Fatal(err)
	}
	if !d.Equal(f, 1e-15) {
		t.Fatal("f - g + g != f")
	}
}

// TestSubFromMatchesSub: the in-place g − f is bitwise g.Sub(f), signed
// zeros included.
func TestSubFromMatchesSub(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f, g := New(5, 3), New(5, 3)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
		g.Data[i] = rng.NormFloat64()
	}
	f.Data[0], g.Data[0] = 0, math.Copysign(0, -1)
	f.Data[1], g.Data[1] = math.Copysign(0, -1), 0
	f.Data[2] = g.Data[2]
	want, err := g.Sub(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SubFrom(g); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Float64bits(f.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: SubFrom %v, Sub %v", i, f.Data[i], want.Data[i])
		}
	}
}

func TestSubDimsMismatch(t *testing.T) {
	if _, err := New(2, 2).Sub(New(4)); err == nil {
		t.Fatal("expected dims mismatch error")
	}
	if err := New(2, 2).AddInPlace(New(2, 3)); err == nil {
		t.Fatal("expected dims mismatch error")
	}
	if err := New(2, 2).SubFrom(New(4)); err == nil {
		t.Fatal("expected dims mismatch error")
	}
}

func TestMinMaxAndMaxAbs(t *testing.T) {
	f, _ := FromData([]float64{3, -7, 2, 5}, 4)
	lo, hi := f.MinMax()
	if lo != -7 || hi != 5 {
		t.Fatalf("MinMax = %v,%v want -7,5", lo, hi)
	}
	if f.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", f.MaxAbs())
	}
}

func TestBytesRoundTrip(t *testing.T) {
	check := func(vals []float64) bool {
		n := len(vals)
		if n == 0 {
			return true
		}
		f, err := FromData(vals, n)
		if err != nil {
			return false
		}
		g, err := FromBytes(f.Bytes(), n)
		if err != nil {
			return false
		}
		for i := range vals {
			// Compare bit patterns so NaN round-trips too.
			if math.Float64bits(g.Data[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesValidation(t *testing.T) {
	if _, err := FromBytes(make([]byte, 7), 1); err == nil {
		t.Fatal("expected byte-length error")
	}
}

func TestDownsampleAverages(t *testing.T) {
	f, _ := FromData([]float64{1, 3, 5, 7}, 4)
	g, err := f.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dims[0] != 2 || g.Data[0] != 2 || g.Data[1] != 6 {
		t.Fatalf("1-D downsample = %v %v", g.Dims, g.Data)
	}

	m := New(2, 2)
	m.Data = []float64{1, 2, 3, 4}
	gm, err := m.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Len() != 1 || gm.Data[0] != 2.5 {
		t.Fatalf("2-D downsample = %v", gm.Data)
	}

	c := New(2, 2, 2)
	for i := range c.Data {
		c.Data[i] = float64(i)
	}
	gc, err := c.Downsample(2)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Len() != 1 || gc.Data[0] != 3.5 {
		t.Fatalf("3-D downsample = %v", gc.Data)
	}
}

func TestDownsampleErrors(t *testing.T) {
	if _, err := New(5).Downsample(2); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := New(4).Downsample(0); err == nil {
		t.Fatal("expected non-positive factor error")
	}
}

func TestUpsampleConstantFieldIsExact(t *testing.T) {
	for _, dims := range [][]int{{4}, {4, 6}, {3, 4, 5}} {
		f := New(dims...)
		for i := range f.Data {
			f.Data[i] = 2.75
		}
		big := make([]int, len(dims))
		for i, d := range dims {
			big[i] = 2 * d
		}
		g := New(big...)
		if err := f.Upsample(g); err != nil {
			t.Fatal(err)
		}
		for i, v := range g.Data {
			if math.Abs(v-2.75) > 1e-12 {
				t.Fatalf("rank %d: upsampled[%d]=%v, want 2.75", len(dims), i, v)
			}
		}
	}
}

func TestUpsampleLinearRamp(t *testing.T) {
	// A linear ramp must be reproduced exactly in the interior by linear
	// interpolation with cell-centered alignment.
	f := New(8)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	g := New(16)
	if err := f.Upsample(g); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 14; i++ {
		want := (float64(i)+0.5)/16*8 - 0.5
		if math.Abs(g.Data[i]-want) > 1e-12 {
			t.Fatalf("ramp upsample [%d]=%v, want %v", i, g.Data[i], want)
		}
	}
}

func TestDownUpRoundTripSmoothField(t *testing.T) {
	// A smooth field downsampled then upsampled should stay close.
	n := 32
	f := New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			f.Set2(math.Sin(float64(j)/16)+math.Cos(float64(i)/16), j, i)
		}
	}
	c, err := f.Downsample(4)
	if err != nil {
		t.Fatal(err)
	}
	r := New(n, n)
	if err := c.Upsample(r); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range f.Data {
		if e := math.Abs(f.Data[i] - r.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	// Edge samples are clamp-extrapolated, so allow a modest boundary error.
	if maxErr > 0.25 {
		t.Fatalf("down/up max error %v too large for smooth field", maxErr)
	}
}

func TestUpsampleRankMismatch(t *testing.T) {
	if err := New(4).Upsample(New(4, 4)); err == nil {
		t.Fatal("expected rank mismatch error")
	}
}

func TestEqualDimsDiffer(t *testing.T) {
	if New(2, 2).Equal(New(4), 1) {
		t.Fatal("fields with different dims reported equal")
	}
}
