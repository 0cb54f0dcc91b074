package huffman

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, symbols []int) []byte {
	t.Helper()
	enc := Encode(symbols, 1)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(symbols) == 0 && len(dec) == 0 {
		return enc
	}
	if !reflect.DeepEqual(dec, symbols) {
		t.Fatalf("round trip mismatch: got %v, want %v", dec[:min(10, len(dec))], symbols[:min(10, len(symbols))])
	}
	return enc
}

func TestEmpty(t *testing.T) { roundTrip(t, nil) }

func TestSingleSymbol(t *testing.T) {
	roundTrip(t, []int{42})
	roundTrip(t, []int{7, 7, 7, 7, 7, 7, 7})
}

func TestTwoSymbols(t *testing.T) {
	roundTrip(t, []int{0, 1, 0, 0, 1, 0})
}

func TestNegativeSymbols(t *testing.T) {
	roundTrip(t, []int{-5, 3, -5, -5, 0, 3, -1000000, -5})
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// SZ-like: 95% of codes are the same value. Huffman should get close
	// to the entropy, far below the naive 8 bytes/int.
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 20000)
	for i := range symbols {
		if rng.Float64() < 0.95 {
			symbols[i] = 512
		} else {
			symbols[i] = 512 + rng.Intn(64) - 32
		}
	}
	enc := roundTrip(t, symbols)
	// Entropy is ~0.5 bits/symbol; allow generous slack (header + 1 bit min).
	if len(enc) > len(symbols)/4 {
		t.Fatalf("skewed data encoded to %d bytes for %d symbols; expected < %d", len(enc), len(symbols), len(symbols)/4)
	}
}

func TestUniformDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	symbols := make([]int, 4096)
	for i := range symbols {
		symbols[i] = rng.Intn(256)
	}
	enc := roundTrip(t, symbols)
	// ~8 bits/symbol + header: must stay near 1 byte each.
	if len(enc) > 2*len(symbols) {
		t.Fatalf("uniform data blew up: %d bytes for %d symbols", len(enc), len(symbols))
	}
}

func TestQuickRoundTrip(t *testing.T) {
	check := func(raw []int16) bool {
		symbols := make([]int, len(raw))
		for i, v := range raw {
			symbols[i] = int(v)
		}
		enc := Encode(symbols, 1)
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(symbols) {
			return false
		}
		for i := range dec {
			if dec[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	// Must error, never panic, on malformed input.
	cases := [][]byte{
		{},
		{0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{5, 0}, // count=5 but empty alphabet
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("case %d: expected error for garbage input", i)
		}
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	enc := Encode([]int{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4}, 1)
	for cut := 1; cut < 4; cut++ {
		if _, err := Decode(enc[:len(enc)-cut]); err == nil {
			// Truncating may still decode if the lost bits were padding;
			// only fail when more than a byte of payload is gone.
			if cut > 1 {
				t.Fatalf("expected error for payload truncated by %d bytes", cut)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	symbols := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := Encode(symbols, 1)
	b := Encode(symbols, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestLargeAlphabet(t *testing.T) {
	symbols := make([]int, 3000)
	for i := range symbols {
		symbols[i] = i % 1500 // 1500 distinct symbols
	}
	roundTrip(t, symbols)
}
