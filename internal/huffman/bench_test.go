package huffman

import (
	"math/rand"
	"testing"
)

// benchSymbols resembles the quantizer-code streams the SZ codec feeds this
// package: a tight, heavily skewed alphabet around the zero-prediction code.
func benchSymbols(n int) []int {
	rng := rand.New(rand.NewSource(1))
	out := make([]int, n)
	for i := range out {
		out[i] = 1<<16 + int(rng.NormFloat64()*3)
	}
	return out
}

// szSymbols is shaped like a real SZ code stream: hits cluster around the
// zero-prediction bin 2^15 and about 1% are the unpredictable code 2^16.
// The outlier stretches the symbol span to ~2^15 against a few dozen
// distinct symbols: the case that used to push the code table
// onto its map fallback.
func szSymbols(n int) []int {
	rng := rand.New(rand.NewSource(2))
	out := make([]int, n)
	for i := range out {
		if rng.Intn(100) == 0 {
			out[i] = 1 << 16
			continue
		}
		out[i] = 1<<15 + int(rng.NormFloat64()*2)
	}
	return out
}

var benchStreams = []struct {
	name string
	syms func(int) []int
	n    int
}{
	{"Gauss", benchSymbols, 1 << 17},
	{"SZ", szSymbols, 1 << 18},
}

// encodeSink keeps the benchmarked Encode result live.
var encodeSink []byte

func BenchmarkEncode(b *testing.B) {
	for _, bs := range benchStreams {
		symbols := bs.syms(bs.n)
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(symbols)))
			for i := 0; i < b.N; i++ {
				encodeSink = Encode(symbols, 1)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, bs := range benchStreams {
		symbols := bs.syms(bs.n)
		data := Encode(symbols, 1)
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * len(symbols)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
