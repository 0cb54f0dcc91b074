package huffman

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeParallelByteIdentity: the sharded count/pack must reproduce the
// one-worker stream exactly for any worker count, across alphabet shapes that
// hit both the dense and the map histogram/code-table paths.
func TestEncodeParallelByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string][]int{
		"empty":         {},
		"single":        {42},
		"uniform":       make([]int, 10000),
		"negative":      {-5, -5, -5, 3, 3, -700000, 12, -5},
		"quantizerLike": nil, // filled below: tight alphabet, dense path
		"wideSparse":    nil, // filled below: huge span, map path
	}
	ql := make([]int, 50000)
	for i := range ql {
		ql[i] = 1<<20 + int(rng.NormFloat64()*4)
	}
	cases["quantizerLike"] = ql
	ws := make([]int, 20000)
	for i := range ws {
		ws[i] = rng.Intn(1 << 30)
		if rng.Intn(2) == 0 {
			ws[i] = -ws[i]
		}
	}
	cases["wideSparse"] = ws

	for name, symbols := range cases {
		want := Encode(symbols, 1)
		for _, w := range []int{2, 3, 8, 16} {
			got := Encode(symbols, w)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: workers=%d stream differs from serial (%d vs %d bytes)",
					name, w, len(got), len(want))
			}
		}
		dec, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(dec) != len(symbols) {
			t.Fatalf("%s: round trip length %d != %d", name, len(dec), len(symbols))
		}
		for i := range symbols {
			if dec[i] != symbols[i] {
				t.Fatalf("%s: round trip mismatch at %d", name, i)
			}
		}
	}
}
