package zfp

import (
	"math/rand"
	"testing"

	"lrm/internal/bitstream"
)

// decodePlanesReference is the block plane decoder as it stood before the
// plane transpose left the bit-serial parse, kept verbatim as the oracle
// for decodePlanes + transposeLow: normal plane orientation (bit i = value
// i, from decodePlane), the full transpose64, and a copy loop.
func decodePlanesReference(r *bitstream.Reader, nb []uint64, size, kmin int) error {
	n := 0
	if size == 64 {
		// Inverse of the encode fast path: store plane k at word 63-k
		// (planes below kmin stay zero), anti-transpose, read coefficient
		// i from word 63-i.
		var planes [64]uint64
		for k := intprec - 1; k >= kmin; k-- {
			plane, n2, err := decodePlane(r, size, n)
			if err != nil {
				return err
			}
			planes[63-k] = plane
			n = n2
		}
		transpose64(&planes)
		for i := 0; i < 64; i++ {
			nb[i] = planes[63-i]
		}
		return nil
	}
	for i := range nb {
		nb[i] = 0
	}
	for k := intprec - 1; k >= kmin; k-- {
		plane, n2, err := decodePlane(r, size, n)
		if err != nil {
			return err
		}
		n = n2
		for i := 0; i < size; i++ {
			nb[i] |= (plane >> uint(i) & 1) << uint(k)
		}
	}
	return nil
}

// decodeCoeffs runs the production decode of one block's planes to
// coefficients: decodePlanes, then, for a full block, the transpose the
// decoder runs on the reconstructing worker.
func decodeCoeffs(r *bitstream.Reader, nb []uint64, size, kmin int) error {
	if err := decodePlanes(r, nb, size, kmin); err != nil {
		return err
	}
	if size == 64 {
		transposeLow((*[64]uint64)(nb), intprec-kmin)
	}
	return nil
}

// checkDecodeMatchesReference decodes data with both decoders and fails on
// any difference in error, bits consumed or (on success) coefficients.
func checkDecodeMatchesReference(t *testing.T, data []byte, size, kmin int) {
	t.Helper()
	rRef, rNew := bitstream.NewReader(data), bitstream.NewReader(data)
	ref, got := make([]uint64, size), make([]uint64, size)
	errRef := decodePlanesReference(rRef, ref, size, kmin)
	errNew := decodeCoeffs(rNew, got, size, kmin)
	if errRef != errNew {
		t.Fatalf("size=%d kmin=%d: error %v, reference %v", size, kmin, errNew, errRef)
	}
	if rRef.Pos() != rNew.Pos() {
		t.Fatalf("size=%d kmin=%d: consumed %d bits, reference %d", size, kmin, rNew.Pos(), rRef.Pos())
	}
	if errRef != nil {
		return
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("size=%d kmin=%d: coefficient %d = %#x, reference %#x", size, kmin, i, got[i], ref[i])
		}
	}
}

// TestTransposeLowMatchesFull checks the restricted decode transpose
// against transpose64 on every output word for every row count 0–64.
func TestTransposeLowMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 100; trial++ {
		for rows := 0; rows <= 64; rows++ {
			var src [64]uint64
			for i := 0; i < rows; i++ {
				src[i] = rng.Uint64() >> uint(rng.Intn(64))
			}
			full, low := src, src
			transpose64(&full)
			transposeLow(&low, rows)
			if low != full {
				t.Fatalf("trial=%d rows=%d: transposeLow differs from transpose64", trial, rows)
			}
		}
	}
}

// TestDecodePlanesMatchesReference drives encoded, truncated and
// bit-flipped plane streams through both decoders at every kmin.
func TestDecodePlanesMatchesReference(t *testing.T) {
	for _, data := range decodePlanesSeeds() {
		for _, size := range []int{4, 16, 64} {
			for kmin := 0; kmin <= intprec; kmin++ {
				checkDecodeMatchesReference(t, data, size, kmin)
			}
		}
	}
}

// decodePlanesSeeds returns full-block plane streams at several kmin, each
// also truncated and with one bit flipped.
func decodePlanesSeeds() [][]byte {
	rng := rand.New(rand.NewSource(47))
	var out [][]byte
	for _, kmin := range []int{0, 4, 16, 40, 60, 63, 64} {
		nb := make([]uint64, 64)
		for i := range nb {
			nb[i] = rng.Uint64() >> uint(rng.Intn(64))
		}
		var w bitstream.Writer
		encodePlanes(&w, nb, 64, kmin)
		enc := w.Bytes()
		out = append(out, enc)
		if len(enc) > 1 {
			out = append(out, enc[:len(enc)/2])
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
			out = append(out, flipped)
		}
	}
	return out
}

// FuzzDecodePlanes differentially fuzzes the block plane decoder against
// decodePlanesReference: arbitrary bytes, a block size of 4, 16 or 64 and
// kmin in [0, 64] must give the same error, the same bits consumed and the
// same coefficients.
func FuzzDecodePlanes(f *testing.F) {
	for i, data := range decodePlanesSeeds() {
		f.Add(data, byte(16*i), byte(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, kmin, sizeSel byte) {
		size := [3]int{4, 16, 64}[sizeSel%3]
		checkDecodeMatchesReference(t, data, size, int(kmin)%(intprec+1))
	})
}
