package huffman

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Golden hashes captured from the pre-rewrite encoder/decoder (container/heap
// tree build, per-bit group-walk decode). The slab heap and table-driven
// decoder MUST reproduce and accept these exact streams.

func goldenSkew(n int) []int {
	syms := make([]int, n)
	for i := range syms {
		v := 32768
		switch {
		case i%97 == 0:
			v = 65536
		case i%13 == 0:
			v = 32768 + (i%7 - 3)
		case i%5 == 0:
			v = 32768 + i%3
		}
		syms[i] = v
	}
	return syms
}

var huffmanGoldenStreams = map[int]string{
	1:     "1fb57a0fc7c143f6",
	100:   "e7b49ef6e66e5ff9",
	65536: "4213a77554beabf9",
}

func TestGoldenStreams(t *testing.T) {
	for n, want := range huffmanGoldenStreams {
		syms := goldenSkew(n)
		for _, workers := range []int{1, 8} {
			enc := Encode(syms, workers)
			s := sha256.Sum256(enc)
			if got := fmt.Sprintf("%x", s[:8]); got != want {
				t.Errorf("skew-%d workers=%d: stream hash %s, want golden %s", n, workers, got, want)
			}
			back, err := Decode(enc)
			if err != nil {
				t.Fatalf("skew-%d workers=%d: decode: %v", n, workers, err)
			}
			if len(back) != n {
				t.Fatalf("skew-%d: round trip length %d != %d", n, len(back), n)
			}
			for i := range back {
				if back[i] != syms[i] {
					t.Fatalf("skew-%d: symbol %d = %d, want %d", n, i, back[i], syms[i])
				}
			}
		}
	}
}
