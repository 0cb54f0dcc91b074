package compress

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

func TestDimsHeaderRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{7}, {3, 4}, {5, 6, 7}, {1 << 20}} {
		hdr := EncodeDimsHeader(dims)
		got, rest, err := DecodeDimsHeader(append(hdr, 0xAB))
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 1 || rest[0] != 0xAB {
			t.Fatal("rest not preserved")
		}
		if len(got) != len(dims) {
			t.Fatalf("dims = %v", got)
		}
		for i := range dims {
			if got[i] != dims[i] {
				t.Fatalf("dims = %v, want %v", got, dims)
			}
		}
	}
}

func TestDimsHeaderGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},    // rank 0
		{4},    // rank 4
		{2, 5}, // missing second extent
		{1, 0}, // zero extent
	}
	for i, b := range cases {
		if _, _, err := DecodeDimsHeader(b); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestFlateCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := grid.New(6, 7, 8)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	c := NewFlate(6)
	if !c.Lossless() {
		t.Fatal("flate must be lossless")
	}
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(context.Background(), enc, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Float64bits(dec.Data[i]) != math.Float64bits(f.Data[i]) {
			t.Fatalf("flate not bit-exact at %d", i)
		}
	}
}

func TestFlateCompressesRepetitiveData(t *testing.T) {
	f := grid.New(4096)
	for i := range f.Data {
		f.Data[i] = float64(i % 4)
	}
	c := NewFlate(9)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r := Ratio(f, enc); r < 10 {
		t.Fatalf("repetitive ratio = %.1f", r)
	}
}

func TestFlateDecompressGarbage(t *testing.T) {
	c := NewFlate(0)
	for i, b := range [][]byte{nil, {}, {1, 4, 0xff, 0xff, 0xff}} {
		if _, err := c.Decompress(context.Background(), b, parallel.Config{}); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestFlateName(t *testing.T) {
	if NewFlate(0).Name() != "flate(l=-1)" {
		t.Fatalf("name = %q", NewFlate(0).Name())
	}
	if NewFlate(9).Name() != "flate(l=9)" {
		t.Fatalf("name = %q", NewFlate(9).Name())
	}
}

func TestRatios(t *testing.T) {
	f := grid.New(100)
	if Ratio(f, nil) != 0 {
		t.Fatal("empty compressed should give 0")
	}
	if Ratio(f, make([]byte, 100)) != 8 {
		t.Fatal("ratio arithmetic broken")
	}
	if RatioBytes(100, 0) != 0 || RatioBytes(100, 25) != 4 {
		t.Fatal("RatioBytes broken")
	}
}

func TestFlateBytesQuick(t *testing.T) {
	check := func(b []byte) bool {
		enc, err := FlateBytes(b, 6)
		if err != nil {
			return false
		}
		dec, err := InflateBytes(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(b) {
			return false
		}
		for i := range b {
			if dec[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
