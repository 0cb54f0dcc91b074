package zfp

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"lrm/internal/bitstream"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// The hashes below were captured from the pre-rewrite scalar kernels (the
// bit-by-bit encodePlane/decodePlane and the full transpose64 path), before
// the batch-of-64 rewrites landed. The rewritten kernels MUST reproduce
// these streams byte for byte at every worker count: the rewrite is a
// latency optimization with zero format budget.

// goldenSynth fills a field with the fixture waveform used to capture the
// golden hashes.
func goldenSynth(t *testing.T, dims ...int) *grid.Field {
	t.Helper()
	f := grid.New(dims...)
	for i := range f.Data {
		x := float64(i)
		f.Data[i] = math.Sin(x*0.017)*3.5 + math.Cos(x*0.0013)*11 + 0.25*math.Sin(x*0.41)
	}
	return f
}

func goldenHash(b []byte) string {
	s := sha256.Sum256(b)
	return fmt.Sprintf("%x", s[:8])
}

var goldenFields = []struct {
	name string
	dims []int
}{
	{"1d-37", []int{37}},
	{"1d-4096", []int{4096}},
	{"2d-33x47", []int{33, 47}},
	{"2d-128x96", []int{128, 96}},
	{"3d-16", []int{16, 16, 16}},
	{"3d-31x17x9", []int{31, 17, 9}},
	{"3d-40x44x48", []int{40, 44, 48}},
}

var zfpGoldenStreams = map[[2]string]string{
	{"zfp-p8", "1d-37"}:       "104964385a3c9147",
	{"zfp-p8", "1d-4096"}:     "c0fc8fec4a6c018d",
	{"zfp-p8", "2d-33x47"}:    "f12c93a9e8358017",
	{"zfp-p8", "2d-128x96"}:   "1d300cad2e5a4161",
	{"zfp-p8", "3d-16"}:       "db58a6a1294ab86d",
	{"zfp-p8", "3d-31x17x9"}:  "81f4c81897b40fa8",
	{"zfp-p8", "3d-40x44x48"}: "b3e4d7e337d3f1d4",

	{"zfp-p16", "1d-37"}:       "2cde9f085cf55124",
	{"zfp-p16", "1d-4096"}:     "da410b69e06f0a42",
	{"zfp-p16", "2d-33x47"}:    "d5d41e73bde5f02d",
	{"zfp-p16", "2d-128x96"}:   "05833ca1c99bdb69",
	{"zfp-p16", "3d-16"}:       "ef38a862a3bc6b8a",
	{"zfp-p16", "3d-31x17x9"}:  "d9ce57198ee9819d",
	{"zfp-p16", "3d-40x44x48"}: "e3aa206f20a45a8d",

	{"zfp-p60", "1d-37"}:       "ae2300fbf1c963e6",
	{"zfp-p60", "1d-4096"}:     "843ef42ae9865fe9",
	{"zfp-p60", "2d-33x47"}:    "4e3387f36bc6bdd6",
	{"zfp-p60", "2d-128x96"}:   "9b6ad88b993abedf",
	{"zfp-p60", "3d-16"}:       "f708572c7abd231b",
	{"zfp-p60", "3d-31x17x9"}:  "e2c6b5b1ee5b3f33",
	{"zfp-p60", "3d-40x44x48"}: "ff37e35508e63d58",

	{"zfp-a1e-6", "1d-37"}:       "9b52128a71081a42",
	{"zfp-a1e-6", "1d-4096"}:     "269a7ab025b3320f",
	{"zfp-a1e-6", "2d-33x47"}:    "4178162951d9f3ee",
	{"zfp-a1e-6", "2d-128x96"}:   "d95e3bfee3258d9d",
	{"zfp-a1e-6", "3d-16"}:       "58757788e97b472b",
	{"zfp-a1e-6", "3d-31x17x9"}:  "bde71e04e8684e97",
	{"zfp-a1e-6", "3d-40x44x48"}: "035231bbd0a46aec",

	{"zfp-r7", "1d-37"}:       "16035d4a30191763",
	{"zfp-r7", "1d-4096"}:     "801ce80a6426f8bb",
	{"zfp-r7", "2d-33x47"}:    "607d3f5941f91da7",
	{"zfp-r7", "2d-128x96"}:   "8a49d344ee27645f",
	{"zfp-r7", "3d-16"}:       "659c28d6b29b2c45",
	{"zfp-r7", "3d-31x17x9"}:  "23bf1ca760c71c40",
	{"zfp-r7", "3d-40x44x48"}: "7662077a474930cc",
}

func zfpGoldenCodec(t *testing.T, name string) *Codec {
	t.Helper()
	switch name {
	case "zfp-p8":
		return MustNew(8)
	case "zfp-p16":
		return MustNew(16)
	case "zfp-p60":
		return MustNew(60)
	case "zfp-a1e-6":
		return MustNewAccuracy(1e-6)
	case "zfp-r7":
		return MustNewRate(7)
	}
	t.Fatalf("unknown codec fixture %q", name)
	return nil
}

// TestGoldenStreams locks the compressed output to the pre-rewrite scalar
// kernels at workers=1 and workers=8 (with the size cutover disabled so the
// 8-way path genuinely shards even the small fixtures).
func TestGoldenStreams(t *testing.T) {
	for key, want := range zfpGoldenStreams {
		cn, fn := key[0], key[1]
		var dims []int
		for _, gf := range goldenFields {
			if gf.name == fn {
				dims = gf.dims
			}
		}
		f := goldenSynth(t, dims...)
		base := zfpGoldenCodec(t, cn)
		for _, workers := range []int{1, 8} {
			cfg := parallel.Config{Workers: workers, MinShardBytes: -1}
			enc, err := base.Compress(context.Background(), f, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", cn, fn, workers, err)
			}
			if got := goldenHash(enc); got != want {
				t.Errorf("%s/%s workers=%d: stream hash %s, want golden %s", cn, fn, workers, got, want)
			}
			back, err := base.Decompress(context.Background(), enc, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=%d decode: %v", cn, fn, workers, err)
			}
			if back.Len() != f.Len() {
				t.Fatalf("%s/%s: round trip length %d != %d", cn, fn, back.Len(), f.Len())
			}
		}
	}
}

// --- scalar reference implementations (the pre-rewrite kernels) ---

// encodePlaneScalar is the original bit-by-bit plane encoder, kept verbatim
// as the reference the batch kernel is proved against.
func encodePlaneScalar(w *bitstream.Writer, x uint64, size, n int) int {
	if n > 0 {
		w.WriteBits(bits.Reverse64(x)>>(64-uint(n)), uint(n))
		x >>= uint(n)
	}
	acc, cnt := uint64(0), uint(0)
	for n < size {
		if x == 0 {
			acc, cnt = acc<<1, cnt+1
			break
		}
		acc, cnt = acc<<1|1, cnt+1
		if cnt == 64 {
			w.WriteBits(acc, 64)
			acc, cnt = 0, 0
		}
		for n < size-1 {
			bit := x & 1
			acc, cnt = acc<<1|bit, cnt+1
			if cnt == 64 {
				w.WriteBits(acc, 64)
				acc, cnt = 0, 0
			}
			if bit != 0 {
				break
			}
			x >>= 1
			n++
		}
		x >>= 1
		n++
	}
	if cnt > 0 {
		w.WriteBits(acc, cnt)
	}
	return n
}

// decodePlaneScalar is the original per-bit plane decoder.
func decodePlaneScalar(r *bitstream.Reader, size, n int) (uint64, int, error) {
	var x uint64
	if n > 0 {
		v, err := r.ReadBits(uint(n))
		if err != nil {
			return 0, 0, err
		}
		x = bits.Reverse64(v) >> (64 - uint(n))
	}
	for n < size {
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, err
		}
		if b == 0 {
			break
		}
		for n < size-1 {
			bb, err := r.ReadBit()
			if err != nil {
				return 0, 0, err
			}
			if bb != 0 {
				break
			}
			n++
		}
		x |= 1 << uint(n)
		n++
	}
	return x, n, nil
}

// TestEncodePlaneMatchesScalar drives random plane sequences through the
// batch and scalar encoders and requires bit-identical streams plus
// identical significance tracking.
func TestEncodePlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, size := range []int{1, 2, 4, 15, 16, 17, 63, 64} {
		for trial := 0; trial < 400; trial++ {
			var fast, slow bitstream.Writer
			nf, ns := 0, 0
			planes := 1 + rng.Intn(20)
			for p := 0; p < planes; p++ {
				x := rng.Uint64() & rng.Uint64() // sparse-ish
				if rng.Intn(4) == 0 {
					x = rng.Uint64() // sometimes dense
				}
				if size < 64 {
					x &= 1<<uint(size) - 1
				}
				nf = encodePlane(&fast, x, size, nf)
				ns = encodePlaneScalar(&slow, x, size, ns)
				if nf != ns {
					t.Fatalf("size=%d trial=%d plane=%d: n %d != scalar %d", size, trial, p, nf, ns)
				}
			}
			fb, sb := fast.Bytes(), slow.Bytes()
			if string(fb) != string(sb) {
				t.Fatalf("size=%d trial=%d: stream mismatch\nbatch:  %x\nscalar: %x", size, trial, fb, sb)
			}
		}
	}
}

// TestDecodePlaneMatchesScalar decodes scalar-encoded streams with the
// window decoder and vice versa, including truncated suffixes, asserting
// identical planes, significance counts, and error outcomes.
func TestDecodePlaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []int{1, 2, 4, 16, 64} {
		for trial := 0; trial < 300; trial++ {
			var w bitstream.Writer
			n := 0
			planes := 1 + rng.Intn(16)
			var want []uint64
			for p := 0; p < planes; p++ {
				x := rng.Uint64() & rng.Uint64() & rng.Uint64()
				if size < 64 {
					x &= 1<<uint(size) - 1
				}
				want = append(want, x)
				n = encodePlaneScalar(&w, x, size, n)
			}
			buf := w.Bytes()

			// Full stream: both decoders must agree with the encoder input.
			rFast := bitstream.NewReader(buf)
			rSlow := bitstream.NewReader(buf)
			nf, ns := 0, 0
			for p := 0; p < planes; p++ {
				xf, nf2, errF := decodePlane(rFast, size, nf)
				xs, ns2, errS := decodePlaneScalar(rSlow, size, ns)
				if (errF == nil) != (errS == nil) {
					t.Fatalf("size=%d trial=%d plane=%d: err mismatch %v vs %v", size, trial, p, errF, errS)
				}
				if errF != nil {
					break
				}
				if xf != xs || nf2 != ns2 {
					t.Fatalf("size=%d trial=%d plane=%d: (%#x,%d) != scalar (%#x,%d)",
						size, trial, p, xf, nf2, xs, ns2)
				}
				if xf != want[p] {
					t.Fatalf("size=%d trial=%d plane=%d: decoded %#x, want %#x", size, trial, p, xf, want[p])
				}
				nf, ns = nf2, ns2
			}

			// Truncated stream: error behaviour must match bit for bit.
			if len(buf) > 1 {
				cut := rng.Intn(len(buf)-1) + 1
				tFast := bitstream.NewReader(buf[:cut])
				tSlow := bitstream.NewReader(buf[:cut])
				nf, ns = 0, 0
				for p := 0; p < planes; p++ {
					xf, nf2, errF := decodePlane(tFast, size, nf)
					xs, ns2, errS := decodePlaneScalar(tSlow, size, ns)
					if (errF == nil) != (errS == nil) {
						t.Fatalf("size=%d trial=%d cut=%d plane=%d: err mismatch %v vs %v",
							size, trial, cut, p, errF, errS)
					}
					if errF != nil {
						break
					}
					if xf != xs || nf2 != ns2 {
						t.Fatalf("size=%d trial=%d cut=%d plane=%d: value mismatch", size, trial, cut, p)
					}
					nf, ns = nf2, ns2
				}
			}
		}
	}
}

// TestTransposeTopMatchesFull verifies the prefix-limited butterfly against
// the full anti-transpose for every prefix length.
func TestTransposeTopMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		var src [64]uint64
		for i := range src {
			src[i] = rng.Uint64()
		}
		full := src
		transpose64(&full)
		for rows := 0; rows <= 64; rows++ {
			top := src
			transposeTop(&top, rows)
			for i := 0; i < rows; i++ {
				if top[i] != full[i] {
					t.Fatalf("trial=%d rows=%d: word %d = %#x, want %#x", trial, rows, i, top[i], full[i])
				}
			}
		}
	}
}

// TestEncodePlanesMatchesScalarPath cross-checks the transpose fast path of
// encodePlanes/decodePlanes against the generic per-plane extraction loop
// (the scalar slicing path, still live for rank<3 blocks).
func TestEncodePlanesMatchesScalarPath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		nb := make([]uint64, 64)
		for i := range nb {
			nb[i] = rng.Uint64() >> uint(rng.Intn(60))
		}
		for _, kmin := range []int{4, 16, 32, 48, 60, 63, 64} {
			var fast, slow bitstream.Writer
			// encodePlanes consumes its scratch (in-place transpose), so
			// feed it a copy and keep nb for the scalar reference.
			scratch := append([]uint64(nil), nb...)
			encodePlanes(&fast, scratch, 64, kmin)
			// Scalar slicing path: extract each plane bit by bit.
			n := 0
			for k := intprec - 1; k >= kmin; k-- {
				var plane uint64
				for i := 0; i < 64; i++ {
					plane |= (nb[i] >> uint(k) & 1) << uint(i)
				}
				n = encodePlaneScalar(&slow, plane, 64, n)
			}
			if string(fast.Bytes()) != string(slow.Bytes()) {
				t.Fatalf("trial=%d kmin=%d: fast path stream != scalar slicing stream", trial, kmin)
			}

			got := make([]uint64, 64)
			if err := decodePlanes(bitstream.NewReader(fast.Bytes()), got, 64, kmin); err != nil {
				t.Fatalf("trial=%d kmin=%d: decodePlanes: %v", trial, kmin, err)
			}
			mask := ^uint64(0) << uint(kmin)
			if kmin >= 64 {
				mask = 0
			}
			for i := range nb {
				if got[i] != nb[i]&mask {
					t.Fatalf("trial=%d kmin=%d: coeff %d = %#x, want %#x", trial, kmin, i, got[i], nb[i]&mask)
				}
			}
		}
	}
}

// TestCompressMatchesAcrossWorkerCounts asserts stream identity over random
// fields for a spread of worker counts, with the cutover both on and off.
func TestCompressMatchesAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := grid.New(24, 20, 28)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	for _, c := range []*Codec{MustNew(16), MustNewAccuracy(1e-7), MustNewRate(9)} {
		serial, err := c.Compress(context.Background(), f, parallel.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			for _, minShard := range []int64{0, -1, 1 << 30} {
				cfg := parallel.Config{Workers: workers, MinShardBytes: minShard}
				enc, err := c.Compress(context.Background(), f, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if string(enc) != string(serial) {
					t.Fatalf("%s workers=%d minShard=%d: stream differs from serial", c.Name(), workers, minShard)
				}
				back, err := c.Decompress(context.Background(), enc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if back.Len() != f.Len() {
					t.Fatal("round trip length mismatch")
				}
			}
		}
	}
}
