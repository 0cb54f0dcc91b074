package fpc

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func roundTrip(t *testing.T, c *Codec, f *grid.Field) []byte {
	t.Helper()
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Data) != len(f.Data) {
		t.Fatalf("length mismatch: %d vs %d", len(dec.Data), len(f.Data))
	}
	for i := range f.Data {
		if math.Float64bits(dec.Data[i]) != math.Float64bits(f.Data[i]) {
			t.Fatalf("bit-exactness violated at %d: %x vs %x", i,
				math.Float64bits(dec.Data[i]), math.Float64bits(f.Data[i]))
		}
	}
	return enc
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("expected level-0 rejection")
	}
	if _, err := New(25); err == nil {
		t.Fatal("expected level-25 rejection")
	}
	c := MustNew(16)
	if !c.Lossless() {
		t.Fatal("fpc must report lossless")
	}
	if c.Name() != "fpc(l=16)" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestLeadingZeroBytes(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 8},
		{1, 7},
		{0xff, 7},
		{0x100, 6},
		{1 << 32, 3}, // 3 leading zero bytes... (bytes 7..5 zero, byte 4 = 1) -> 3
		{1 << 24, 3}, // 4 collapses to 3
		{1 << 63, 0},
	}
	for _, c := range cases {
		if got := leadingZeroBytes(c.x); got != c.want {
			t.Fatalf("leadingZeroBytes(%#x) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLzbCodeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 6, 7, 8} {
		if got := codeToLzb(lzbToCode(n)); got != n {
			t.Fatalf("lzb code round trip %d -> %d", n, got)
		}
	}
}

func TestRoundTripSmooth(t *testing.T) {
	f := grid.New(32, 32)
	for j := 0; j < 32; j++ {
		for i := 0; i < 32; i++ {
			f.Set2(1000+math.Sin(float64(j)/6)+math.Cos(float64(i)/8), j, i)
		}
	}
	c := MustNew(16)
	enc := roundTrip(t, c, f)
	if r := compress.Ratio(f, enc); r < 1.2 {
		t.Fatalf("smooth ratio = %.2f, expected some compression", r)
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	f, _ := grid.FromData([]float64{
		0, math.Copysign(0, -1), 1, -1,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.Pi,
	}, 10)
	roundTrip(t, MustNew(8), f)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := grid.New(5, 7, 11)
	for i := range f.Data {
		f.Data[i] = math.Float64frombits(rng.Uint64())
	}
	roundTrip(t, MustNew(12), f)
}

func TestOddLengths(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 100, 101} {
		f := grid.New(n)
		for i := range f.Data {
			f.Data[i] = float64(i) * 1.5
		}
		roundTrip(t, MustNew(10), f)
	}
}

func TestRepetitiveDataCompresses(t *testing.T) {
	// A repeating sequence is FPC's best case: the fcm learns it exactly.
	f := grid.New(4096)
	for i := range f.Data {
		f.Data[i] = float64(i % 16)
	}
	enc := roundTrip(t, MustNew(16), f)
	if r := compress.Ratio(f, enc); r < 4 {
		t.Fatalf("repetitive ratio = %.2f, expected > 4", r)
	}
}

func TestConstantDataNearOptimal(t *testing.T) {
	f := grid.New(4096)
	for i := range f.Data {
		f.Data[i] = 7.25
	}
	enc := roundTrip(t, MustNew(16), f)
	// A perfectly predicted stream costs ~0.5 bytes/value (the nibble).
	if len(enc) > f.Len() {
		t.Fatalf("constant data encoded to %d bytes for %d values", len(enc), f.Len())
	}
}

func TestLevelAffectsButPreservesLosslessness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := grid.New(2000)
	walk := 0.0
	for i := range f.Data {
		walk += rng.NormFloat64()
		f.Data[i] = walk
	}
	for _, level := range []int{4, 8, 16, 20} {
		roundTrip(t, MustNew(level), f)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := MustNew(8)
	check := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		f, err := grid.FromData(vals, len(vals))
		if err != nil {
			return false
		}
		enc, err := c.Compress(context.Background(), f, parallel.Config{})
		if err != nil {
			return false
		}
		dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
		if err != nil {
			return false
		}
		for i := range vals {
			if math.Float64bits(dec.Data[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressGarbage(t *testing.T) {
	c := MustNew(8)
	cases := [][]byte{
		nil,
		{},
		{1, 4},
		{1, 4, 0},                     // level 0
		{1, 4, 8, 0, 0, 0, 0},         // missing payload
		{1, 4, 8, 255, 0, 0, 0, 1, 2}, // absurd residual length
	}
	for i, b := range cases {
		if _, err := c.Decompress(context.Background(), b, parallel.Config{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	f := grid.New(16)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	enc, _ := c.Compress(context.Background(), f, parallel.Config{})
	if _, err := c.Decompress(context.Background(), enc[:len(enc)-1], parallel.Config{}); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := c.Decompress(context.Background(), append(enc, 0), parallel.Config{}); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestDecodeUsesStreamLevelNotCodecLevel(t *testing.T) {
	f := grid.New(64)
	for i := range f.Data {
		f.Data[i] = math.Sqrt(float64(i))
	}
	enc, err := MustNew(20).Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := MustNew(4).Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if dec.Data[i] != f.Data[i] {
			t.Fatal("stream level ignored on decode")
		}
	}
}
