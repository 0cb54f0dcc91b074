package huffman

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/parallel"
)

// decodeReference is the pre-table decoder kept verbatim: header parse, then
// a per-bit group walk for every symbol. The table-driven Decode must agree
// with it on every input — values, error presence, and error text.
func decodeReference(data []byte) ([]int, error) {
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("huffman: truncated header: %w", compress.ErrTruncated)
		}
		pos += n
		return v, nil
	}
	readVarint := func() (int64, error) {
		v, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("huffman: truncated header: %w", compress.ErrTruncated)
		}
		pos += n
		return v, nil
	}

	count, err := readUvarint()
	if err != nil {
		return nil, err
	}
	nsyms, err := readUvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return []int{}, nil
	}
	if nsyms == 0 {
		return nil, fmt.Errorf("huffman: empty alphabet with nonzero count: %w", compress.ErrCorrupt)
	}
	if err := compress.CheckedAlloc("huffman: alphabet", nsyms, uint64(len(data)-pos)/2, 16); err != nil {
		return nil, err
	}
	if err := compress.CheckedAlloc("huffman: symbols", count, 8*uint64(len(data)), 8); err != nil {
		return nil, err
	}
	sl := make([]symLen, nsyms)
	for i := range sl {
		s, err := readVarint()
		if err != nil {
			return nil, err
		}
		l, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if l == 0 || l > maxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d: %w", l, compress.ErrCorrupt)
		}
		sl[i] = symLen{int(s), int(l)}
	}
	for i := 1; i < len(sl); i++ {
		if sl[i].length < sl[i-1].length ||
			(sl[i].length == sl[i-1].length && sl[i].symbol <= sl[i-1].symbol) {
			return nil, fmt.Errorf("huffman: header not in canonical order: %w", compress.ErrCorrupt)
		}
	}

	var groups [maxCodeLen + 1]lenGroup
	ordered := make([]int, len(sl))
	var code uint64
	prevLen := 0
	for i, e := range sl {
		code <<= uint(e.length - prevLen)
		if groups[e.length].count == 0 {
			groups[e.length] = lenGroup{first: code, offset: i, count: 1}
		} else {
			groups[e.length].count++
		}
		ordered[i] = e.symbol
		code++
		prevLen = e.length
	}

	r := bitstream.NewReader(data[pos:])
	out := make([]int, 0, count)
	for uint64(len(out)) < count {
		var v uint64
		l := 0
		decoded := false
		for l < maxCodeLen {
			b, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("huffman: truncated payload after %d symbols: %w", len(out), compress.ErrTruncated)
			}
			v = v<<1 | uint64(b)
			l++
			g := &groups[l]
			if g.count == 0 {
				continue
			}
			idx := v - g.first
			if v >= g.first && idx < uint64(g.count) {
				out = append(out, ordered[g.offset+int(idx)])
				decoded = true
				break
			}
		}
		if !decoded {
			return nil, fmt.Errorf("huffman: invalid code in payload: %w", compress.ErrCorrupt)
		}
	}
	return out, nil
}

// compareDecoders runs both decoders over data and fails unless their
// outputs and error outcomes are identical.
func compareDecoders(t *testing.T, data []byte) {
	t.Helper()
	got, errGot := Decode(data)
	want, errWant := decodeReference(data)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("error mismatch: table=%v reference=%v", errGot, errWant)
	}
	if errGot != nil {
		if errGot.Error() != errWant.Error() {
			t.Fatalf("error text mismatch:\ntable:     %v\nreference: %v", errGot, errWant)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("length mismatch: %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("symbol %d: table %d != reference %d", i, got[i], want[i])
		}
	}
}

// fibSymbols builds a stream whose histogram follows Fibonacci counts — the
// worst case for code depth — forcing codes past tableBits so the overflow
// walk is exercised alongside the table fast path.
func fibSymbols(nsyms int) []int {
	a, b := 1, 1
	var syms []int
	for s := 0; s < nsyms; s++ {
		for i := 0; i < a; i++ {
			syms = append(syms, s)
		}
		a, b = b, a+b
	}
	return syms
}

// TestDecodeMatchesReference drives random, skewed, deep-tree, truncated,
// and bit-flipped streams through both decoders.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inputs [][]byte

	// Valid streams across the table gate (count ≥ 64 builds the table).
	for _, n := range []int{1, 8, 63, 64, 65, 1000, 20000} {
		syms := make([]int, n)
		for i := range syms {
			switch rng.Intn(3) {
			case 0:
				syms[i] = rng.Intn(4)
			case 1:
				syms[i] = rng.Intn(64) - 32
			default:
				syms[i] = rng.Intn(1 << 16)
			}
		}
		inputs = append(inputs, Encode(syms, 1))
	}
	// Deep trees: codes longer than tableBits (24 Fibonacci symbols reach
	// depth ~23), so valid payloads hit the overflow walk.
	deep := fibSymbols(24)
	if got := Encode(deep, 1); true {
		inputs = append(inputs, got)
	}
	inputs = append(inputs, Encode(fibSymbols(16), 1))

	// Fault injection: truncations and bit flips of every valid stream.
	var faults [][]byte
	for _, enc := range inputs {
		for i := 0; i < 8; i++ {
			if len(enc) < 2 {
				break
			}
			cut := rng.Intn(len(enc)-1) + 1
			faults = append(faults, enc[:cut])
			mut := append([]byte(nil), enc...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			faults = append(faults, mut)
		}
	}
	inputs = append(inputs, faults...)
	inputs = append(inputs, []byte{}, []byte{0x80}, []byte("garbage input"))

	// Kraft-oversubscribed header: three symbols all claiming length 1 is
	// canonically ordered yet pushes the third code to 2 ≥ 2^1, which can
	// never match a 1-bit window. The table fill must treat it as
	// unreachable (not index out of bounds) and decode must match the
	// group-walk outcome. count=64 forces the table path.
	over := []byte{64, 3, 0, 1, 2, 1, 4, 1}
	over = append(over, make([]byte, 16)...)
	inputs = append(inputs, over)

	inputs = append(inputs, fastRegionInputs(rng)...)

	for i, data := range inputs {
		i, data := i, data
		t.Run(fmt.Sprintf("input-%d", i), func(t *testing.T) {
			compareDecoders(t, data)
		})
	}
}

// fastRegionInputs builds streams aimed at the multi-symbol fast loop and
// its hand-offs: counts around multiMinSymbols, payloads that end on every
// offset around the fastTailBytes edge and the fastTailSymbols tail, long
// codes in mid-payload, alphabets too large for the multi-symbol table,
// and truncations and bit flips of each byte near the payload's end.
func fastRegionInputs(rng *rand.Rand) [][]byte {
	var valid [][]byte
	skewed := func(n int) []int {
		syms := make([]int, n)
		for i := range syms {
			syms[i] = 1<<15 + int(rng.NormFloat64()*2)
			if rng.Intn(100) == 0 {
				syms[i] = 1 << 16
			}
		}
		return syms
	}
	// SZ-shaped streams with counts straddling the multi-table threshold
	// and the fast loop's symbol tail, then two long enough to stay in
	// the fast region for thousands of lookups.
	for _, n := range []int{multiMinSymbols - 1, multiMinSymbols, multiMinSymbols + 1,
		multiMinSymbols + fastTailSymbols - 1, multiMinSymbols + fastTailSymbols,
		multiMinSymbols + fastTailSymbols + 1, 4096, 1 << 15} {
		valid = append(valid, Encode(skewed(n), 1))
	}
	// Mostly 1-bit codes: one more symbol moves the payload's end by about
	// one bit, so eight streams end at every bit offset of a byte.
	for extra := 0; extra < 8; extra++ {
		syms := make([]int, multiMinSymbols+extra)
		for i := range syms {
			if i%50 == 49 {
				syms[i] = 1 + i%3
			}
		}
		valid = append(valid, Encode(syms, 1))
	}
	// Long codes scattered through a long payload: the Fibonacci alphabet
	// shuffled, so codes past tableBits start at arbitrary bit offsets
	// inside the fast region.
	deep := fibSymbols(20)
	rng.Shuffle(len(deep), func(i, j int) { deep[i], deep[j] = deep[j], deep[i] })
	valid = append(valid, Encode(deep, 1))

	out := append([][]byte(nil), valid...)
	for _, enc := range valid {
		// Every cut and a bit flip at every byte across the last stretch of
		// the payload: each fast-region exit point meets each failure.
		for back := 1; back <= 2*fastTailBytes && back < len(enc); back++ {
			out = append(out, enc[:len(enc)-back])
			mut := append([]byte(nil), enc...)
			mut[len(mut)-back] ^= 1 << uint(rng.Intn(8))
			out = append(out, mut)
		}
		// Mid-payload damage, where the fast loop meets it first.
		for i := 0; i < 4; i++ {
			mut := append([]byte(nil), enc...)
			mut[len(mut)/2+rng.Intn(len(mut)/4)] ^= 1 << uint(rng.Intn(8))
			out = append(out, mut)
		}
	}
	// An under-subscribed header (two symbols of length 2 leave every code
	// starting with 1 unused) whose payload turns invalid mid-way: the fast
	// loop must hand the bad window to the per-bit walk, which reports it.
	under := []byte{0x80, 0x20, 2, 0, 2, 2, 2} // count 4096
	under = append(under, make([]byte, 600)...)
	under = append(under, 0xff)
	under = append(under, make([]byte, 600)...)
	out = append(out, under)
	// Kraft-oversubscribed (three symbols of length 1, the third code
	// unreachable) with a count large enough to build the multi table.
	over := append([]byte{0x80, 0x20, 3, 0, 1, 2, 1, 4, 1}, make([]byte, 256)...)
	for i := 9; i < len(over); i += 7 {
		over[i] = byte(i)
	}
	out = append(out, over)

	// The largest alphabet the multi-symbol table serves, and the smallest
	// it turns away (the single-symbol path then decodes everything). These
	// streams are long, so they get one cut and one flip each.
	for _, nsyms := range []int{multiMaxAlphabet - 1, multiMaxAlphabet} {
		wide := make([]int, nsyms+multiMinSymbols)
		for i := range wide {
			wide[i] = i % nsyms
		}
		enc := Encode(wide, 1)
		mut := append([]byte(nil), enc...)
		mut[len(mut)-len(mut)/8] ^= 0x10
		out = append(out, enc, enc[:len(enc)-1], mut)
	}
	return out
}

// TestFastRegionFixtures checks that the deep fixture of fastRegionInputs
// is long enough for the fast loop and holds codes past tableBits, so long
// codes are decoded from inside the fast region.
func TestFastRegionFixtures(t *testing.T) {
	deep := fibSymbols(20)
	hist, counts, _ := histogram(deep, 1)
	if counts != nil {
		parallel.PutInts(counts)
	}
	maxLen := 0
	for _, e := range codeLengths(hist) {
		maxLen = max(maxLen, e.length)
	}
	if len(deep) < 4*multiMinSymbols || maxLen <= tableBits {
		t.Fatalf("deep fixture: %d symbols, max code length %d; want ≥ %d symbols and codes past tableBits %d",
			len(deep), maxLen, 4*multiMinSymbols, tableBits)
	}
}

// TestDecodeDeepCodesRoundTrip pins the overflow path explicitly: the
// Fibonacci alphabet must round-trip and must contain codes > tableBits.
func TestDecodeDeepCodesRoundTrip(t *testing.T) {
	syms := fibSymbols(24)
	hist, counts, _ := histogram(syms, 1)
	if counts != nil {
		parallel.PutInts(counts)
	}
	sl := codeLengths(hist)
	maxLen := 0
	for _, e := range sl {
		if e.length > maxLen {
			maxLen = e.length
		}
	}
	if maxLen <= tableBits {
		t.Fatalf("fixture too shallow: max code length %d ≤ tableBits %d", maxLen, tableBits)
	}
	dec, err := Decode(Encode(syms, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(syms) {
		t.Fatalf("length %d != %d", len(dec), len(syms))
	}
	for i := range dec {
		if dec[i] != syms[i] {
			t.Fatalf("symbol %d: %d != %d", i, dec[i], syms[i])
		}
	}
}
