package huffman

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateCorpus regenerates the checked-in FuzzDecode seed corpus:
// a table-sized skewed stream, fault-injected (truncated / bit-flipped)
// variants, a deep-code stream that overflows the decode table, streams
// long enough for the multi-symbol fast loop, and raw garbage. Gated behind LRM_GEN_CORPUS like the codec corpus generators.
func TestGenerateCorpus(t *testing.T) {
	if os.Getenv("LRM_GEN_CORPUS") == "" {
		t.Skip("set LRM_GEN_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	seeds := map[string][]byte{}

	// Skewed stream like sz codes, large enough to build the decode table.
	syms := make([]int, 400)
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
	enc := Encode(syms, 1)
	seeds["seed-skewed"] = enc
	seeds["seed-truncated-header"] = enc[:3]
	seeds["seed-truncated-payload"] = enc[:len(enc)-4]
	mut := append([]byte(nil), enc...)
	mut[len(mut)/2] ^= 0x40
	seeds["seed-bitflip"] = mut

	// Fibonacci counts force codes deeper than the table, exercising the
	// overflow walk.
	deep := fibSymbols(24)
	dEnc := Encode(deep, 1)
	seeds["seed-deepcodes"] = dEnc
	seeds["seed-deepcodes-truncated"] = dEnc[:len(dEnc)*2/3]
	seeds["seed-garbage"] = []byte("\x00\x01\x02\xff\xfe\xfd not a huffman stream")
	// Kraft-oversubscribed header (three symbols of length 1): canonically
	// ordered but the third code overflows its bit length.
	seeds["seed-oversubscribed"] = append([]byte{64, 3, 0, 1, 2, 1, 4, 1}, make([]byte, 16)...)

	// Payloads of thousands of symbols reach the multi-symbol fast loop, so
	// mutations land inside it rather than only in the per-symbol tail.
	sz := Encode(goldenSkew(4096), 1)
	seeds["seed-fast-skewed"] = sz
	mut = append([]byte(nil), sz...)
	mut[len(mut)/2] ^= 0x08
	seeds["seed-fast-bitflip"] = mut
	seeds["seed-fast-truncated"] = sz[:len(sz)-5]
	// Shuffled Fibonacci counts put codes past tableBits mid-payload.
	deepFast := fibSymbols(20)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(deepFast), func(i, j int) { deepFast[i], deepFast[j] = deepFast[j], deepFast[i] })
	seeds["seed-fast-deepcodes"] = Encode(deepFast, 1)

	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
