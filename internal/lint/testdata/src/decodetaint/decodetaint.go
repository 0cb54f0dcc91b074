// Fixture for the decodetaint analyzer: allocation sizes and index bounds
// derived from decoded input must pass CheckedAlloc/NewCheckedField or a
// relational bounds guard. The sanitizers are recognized by name, so local
// stand-ins exercise the same paths as the real compress package; the
// arena getters are the real parallel package's, whose pooled make the
// analyzer cannot see into.
package decodetaint

import (
	"encoding/binary"
	"errors"

	"lrm/internal/parallel"
)

var errBad = errors.New("bad stream")

// CheckedAlloc mimics compress.CheckedAlloc; the analyzer recognizes the
// bounds-guard contract by callee name.
func CheckedAlloc(what string, elems, maxElems uint64, elemBytes int) error {
	if elems > maxElems {
		return errBad
	}
	return nil
}

// Decompress allocates straight from a header-claimed length: the seeded
// violation the self-gate must catch.
func Decompress(b []byte) ([]float64, error) {
	n, _ := binary.Uvarint(b)
	out := make([]float64, n) // want "make sized by untrusted decoded value"
	return out, nil
}

// DecompressChecked bounds the claim through CheckedAlloc first: clean.
func DecompressChecked(b []byte) ([]float64, error) {
	n, _ := binary.Uvarint(b)
	if err := CheckedAlloc("fixture: values", n, uint64(len(b))/8, 8); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	return out, nil
}

// DecompressGuarded uses an explicit relational guard instead: clean.
func DecompressGuarded(b []byte) ([]byte, error) {
	n, _ := binary.Uvarint(b)
	if n > uint64(len(b)) {
		return nil, errBad
	}
	return make([]byte, n), nil
}

// DecompressCopy sizes from the data actually in hand, not a claim: clean.
func DecompressCopy(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// readLen is a helper whose summary marks its first result as decoded
// (untrusted) data.
func readLen(b []byte) (uint64, []byte) {
	v, n := binary.Uvarint(b)
	return v, b[n:]
}

// DecompressHelper shows taint flowing through a helper's result summary.
func DecompressHelper(b []byte) ([]int, error) {
	v, rest := readLen(b)
	out := make([]int, v) // want "make sized by untrusted decoded value"
	for i := range out {
		if i < len(rest) {
			out[i] = int(rest[i])
		}
	}
	return out, nil
}

// alloc's parameter reaches a make unguarded, so its summary marks the
// parameter size-sensitive; the violation is reported at call sites that
// feed it untrusted values, not here.
func alloc(n uint64) []float64 {
	return make([]float64, n)
}

// DecompressVia passes a decoded claim into a size-sensitive parameter.
func DecompressVia(b []byte) []float64 {
	claimed, _ := binary.Uvarint(b)
	return alloc(claimed) // want "size-determining parameter"
}

// DecodeIndex uses a decoded value as an index with no bounds guard.
func DecodeIndex(b []byte, table []int) int {
	i, _ := binary.Uvarint(b)
	return table[i] // want "index derived from untrusted decoded value"
}

// DecodeIndexGuarded bounds the index first: clean.
func DecodeIndexGuarded(b []byte, table []int) int {
	i, _ := binary.Uvarint(b)
	if i >= uint64(len(table)) {
		return -1
	}
	return table[i]
}

// DecodeSuppressed carries a reviewed waiver: the directive suppresses the
// finding, so no diagnostic may surface here.
func DecodeSuppressed(b []byte) []byte {
	n, _ := binary.Uvarint(b)
	//lrmlint:ignore decodetaint n is bounded by protocol framing upstream
	return make([]byte, n)
}

// DecompressArena sizes arena scratch from header claims: a pool miss
// allocates the claimed length, so each getter is the same sink as a make.
func DecompressArena(b []byte) ([]float64, []uint64) {
	n, k := binary.Uvarint(b)
	m, _ := binary.Uvarint(b[k:])
	vals := parallel.Floats(int(n))   // want "parallel.Floats sized by untrusted decoded value"
	words := parallel.Uint64s(int(m)) // want "parallel.Uint64s sized by untrusted decoded value"
	return vals, words
}

// DecompressArenaChecked bounds the claim first: clean.
func DecompressArenaChecked(b []byte) []float64 {
	n, _ := binary.Uvarint(b)
	if err := CheckedAlloc("fixture: scratch", n, uint64(len(b)), 8); err != nil {
		return nil
	}
	return parallel.Floats(int(n))
}
