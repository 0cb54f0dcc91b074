package huffman

import "testing"

// FuzzDecode asserts the canonical-Huffman decoder never panics on
// arbitrary input, and differentially checks the table-driven decoder
// against the per-bit reference: identical symbols, identical errors. The
// checked-in seeds under testdata/fuzz/FuzzDecode include truncated and
// bit-flipped streams, some of them thousands of symbols long, so plain
// `go test` already exercises both decoders — the multi-symbol fast loop
// included — over the fault-injection corpus.
func FuzzDecode(f *testing.F) {
	f.Add(Encode([]int{1, 2, 3, 1, 1, 2}, 1))
	f.Add(Encode([]int{-5}, 1))
	f.Add(Encode(nil, 1))
	big := make([]int, 500)
	for i := range big {
		big[i] = i % 7
	}
	f.Add(Encode(big, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := Decode(data); err == nil {
			if len(out) > 1<<26 {
				t.Fatalf("implausible decode length %d", len(out))
			}
		}
		compareDecoders(t, data)
	})
}

// FuzzRoundTrip asserts encode/decode agree for arbitrary symbol streams.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		symbols := make([]int, len(raw))
		for i, b := range raw {
			symbols[i] = int(int8(b)) // signed symbols exercise varint paths
		}
		dec, err := Decode(Encode(symbols, 1))
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		if len(dec) != len(symbols) {
			t.Fatalf("length %d != %d", len(dec), len(symbols))
		}
		for i := range dec {
			if dec[i] != symbols[i] {
				t.Fatalf("symbol %d: %d != %d", i, dec[i], symbols[i])
			}
		}
	})
}
