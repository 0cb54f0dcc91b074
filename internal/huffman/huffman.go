// Package huffman implements a canonical Huffman coder over integer symbol
// alphabets. It is the entropy-coding stage of the SZ-style compressor: SZ
// quantization codes are highly skewed (most predictions hit bin 0), which
// is exactly the regime where Huffman coding shines.
//
// The encoded stream is self-describing: a compact header stores the code
// lengths (canonical codes are reconstructed from lengths alone), followed
// by the bit-packed payload.
//
// Both directions are table-driven. The encoder looks each symbol's code
// up in a flat table indexed by symbol, built in the histogram's own count
// buffer whenever the symbol span is dense (the SZ case: codes in
// [0, 2^16] however few are present); only sparse alphabets use a map. The
// decoder reads 64-bit windows and resolves up to three short codes per
// lookup in a multi-symbol table, leaving long codes and the last payload
// bytes to a per-symbol path. The format is fixed: the streams and every
// decode outcome, errors included, are those of the plain per-symbol coder
// (decodeReference in the tests).
//
// Both the frequency count and the payload encode parallelize over shards
// of the symbol slice without changing a single output bit: per-shard
// counts merge by addition (commutative, so the totals equal a serial
// count), the tree build is a deterministic function of the totals, and
// per-shard payload writers concatenate in shard order, reproducing the
// serial bit sequence exactly.
package huffman

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/parallel"
)

// maxCodeLen caps code lengths so the decoder tables stay small. 57 bits is
// far beyond anything reachable with realistic symbol counts but keeps the
// canonical-code arithmetic safely inside uint64.
const maxCodeLen = 57

// tableBits sizes the first-level decode table: every code of length ≤
// tableBits resolves with a single Peek64 and one load. SZ quantization
// alphabets are dominated by a handful of near-zero bins, so in practice
// almost every payload symbol takes this path.
const tableBits = 11

// tableMinSymbols gates the decode-table build: below this, filling 2^11
// entries costs more than the per-bit walk it replaces.
const tableMinSymbols = 64

// multiMinSymbols gates the multi-symbol table: its build clears and
// refills 2^tableBits entries, up to three stores each, and pays for
// itself only from about this many symbols on. Both sides are in use: the
// lrm-bench/3 model-select workload (seed 1) decodes sz streams of 1 to
// 1680 symbols (below) and of 2160 to 64000 (above); direct-sz decodes
// 262144.
const multiMinSymbols = 2048

// multiMaxAlphabet bounds the alphabet the multi-symbol table serves: its
// entries hold three 16-bit canonical indices, so it is built only for
// alphabets of fewer than 2^16 symbols.
const multiMaxAlphabet = 1 << 16

// fastTailBytes is how many payload bytes must remain for the fast decode
// loop: 9 bytes cover a 64-bit window at any bit offset, so every code the
// loop resolves from the table lies wholly in genuine payload bits.
const fastTailBytes = 9

// lookupsPerWindow is how many multi-symbol lookups the fast loop takes
// from one 64-bit window: a window read at any bit offset holds at least
// 57 genuine bits, and each lookup consumes at most tableBits of them.
const lookupsPerWindow = (64 - 7) / tableBits

// fastTailSymbols is the room the fast loop needs in the output per
// window: every lookup stores three symbols.
const fastTailSymbols = 3 * lookupsPerWindow

// treeNode is one slab entry of the Huffman tree. All nodes live in a single
// slice and refer to children by index, so building a tree costs O(1)
// allocations instead of one per node.
type treeNode struct {
	count  int
	symbol int // valid for leaves; min leaf symbol for internal nodes
	seq    int // creation sequence; final ordering tie-break
	left   int32
	right  int32 // slab indices; -1 marks a leaf
}

// symCount is one alphabet entry: a distinct symbol and its frequency.
type symCount struct {
	symbol, count int
}

// denseRangeCap bounds the dense counting table: the symbol span must be
// at most this AND not wildly larger than the input, otherwise the
// map-based path is used. SZ quantization codes span [0, 2*bins], so the
// hot caller is always dense.
const denseRangeCap = 1 << 22

// histogram returns the distinct symbols with their frequencies, sorted by
// symbol. When the symbol span is small it counts into dense per-shard
// arrays merged by addition; otherwise it falls back to a serial map. Both
// paths return the identical sorted slice.
//
// On the dense path the span-sized count buffer is also returned, with the
// smallest symbol as its base: it comes from the parallel arena, the caller
// owns it (buildCodeTable overwrites it with the code table) and must hand
// it back with parallel.PutInts. On the map path dense is nil.
func histogram(symbols []int, workers int) (hist []symCount, dense []int, base int) {
	if len(symbols) == 0 {
		return nil, nil, 0
	}
	lo, hi := minMax(symbols, workers)
	span := hi - lo + 1
	if span <= denseRangeCap && span <= 4*len(symbols)+1024 {
		dense = denseCounts(symbols, lo, span, workers)
		return denseHistogram(dense, lo), dense, lo
	}
	counts := make(map[int]int)
	for _, s := range symbols {
		counts[s]++
	}
	hist = make([]symCount, 0, len(counts))
	for s, c := range counts {
		hist = append(hist, symCount{s, c})
	}
	sort.Slice(hist, func(i, j int) bool { return hist[i].symbol < hist[j].symbol })
	return hist, nil, 0
}

// minMax scans for the smallest and largest symbol, one pool shard per
// worker, and reduces the per-shard extremes after the join.
func minMax(symbols []int, workers int) (int, int) {
	shards := parallel.Shards(workers, len(symbols))
	los := make([]int, shards)
	his := make([]int, shards)
	parallel.ForShard(workers, len(symbols), func(sh, a, b int) {
		lo, hi := symbols[a], symbols[a]
		for _, s := range symbols[a+1 : b] {
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		los[sh], his[sh] = lo, hi
	})
	lo, hi := los[0], his[0]
	for i := 1; i < shards; i++ {
		if los[i] < lo {
			lo = los[i]
		}
		if his[i] > hi {
			hi = his[i]
		}
	}
	return lo, hi
}

// denseCounts counts into a span-sized arena array indexed by symbol-lo.
// Shard 0 counts straight into that array and every other shard into a
// private arena table merged by addition, so the totals are exactly the
// one-shard counts no matter how shards interleave.
func denseCounts(symbols []int, lo, span, workers int) []int {
	shards := parallel.Shards(workers, len(symbols))
	tables := make([][]int, shards)
	parallel.ForShard(workers, len(symbols), func(sh, a, b int) {
		t := parallel.Ints(span)
		for i := range t {
			t[i] = 0
		}
		for _, s := range symbols[a:b] {
			t[s-lo]++
		}
		tables[sh] = t
	})
	total := tables[0]
	for _, t := range tables[1:] {
		for i, c := range t {
			total[i] += c
		}
		parallel.PutInts(t)
	}
	return total
}

// denseHistogram lists the nonzero entries of a dense count array, in
// symbol order.
func denseHistogram(counts []int, lo int) []symCount {
	nsyms := 0
	for _, c := range counts {
		if c > 0 {
			nsyms++
		}
	}
	out := make([]symCount, 0, nsyms)
	for i, c := range counts {
		if c > 0 {
			out = append(out, symCount{lo + i, c})
		}
	}
	return out
}

// codeLengths computes Huffman code lengths from a symbol-sorted histogram.
// The result is a deterministic function of the histogram alone.
//
// Nodes live in one slab and the work queue is a manual binary heap of slab
// indices. The ordering below is a strict total order — (count, symbol, seq)
// never ties, because a leaf and an internal node colliding on (count,
// symbol) still differ in creation sequence — so every correct heap pops the
// unique minimum at each step. The merge sequence, and therefore the tree,
// is identical to the previous container/heap implementation.
func codeLengths(hist []symCount) []symLen {
	if len(hist) == 0 {
		return nil
	}
	if len(hist) == 1 {
		return []symLen{{hist[0].symbol, 1}}
	}
	n := len(hist)
	nodes := make([]treeNode, n, 2*n-1)
	for i, e := range hist {
		nodes[i] = treeNode{count: e.count, symbol: e.symbol, seq: i, left: -1, right: -1}
	}
	less := func(a, b int32) bool {
		na, nb := &nodes[a], &nodes[b]
		if na.count != nb.count {
			return na.count < nb.count
		}
		if na.symbol != nb.symbol {
			return na.symbol < nb.symbol
		}
		return na.seq < nb.seq
	}
	h := make([]int32, n)
	for i := range h {
		h[i] = int32(i)
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				m = r
			}
			if !less(h[m], h[i]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	pop := func() int32 {
		x := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(0)
		return x
	}
	seq := n
	for len(h) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, treeNode{
			count:  nodes[a].count + nodes[b].count,
			symbol: min(nodes[a].symbol, nodes[b].symbol),
			seq:    seq,
			left:   a,
			right:  b,
		})
		seq++
		// Push the merged node: append then sift up.
		h = append(h, int32(len(nodes)-1))
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	root := h[0]

	lengths := make([]symLen, 0, n)
	type frame struct {
		idx   int32
		depth int
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &nodes[f.idx]
		if nd.left < 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths = append(lengths, symLen{nd.symbol, d})
			continue
		}
		// Right pushed first so the left subtree pops first, preserving the
		// recursive DFS emission order.
		stack = append(stack, frame{nd.right, f.depth + 1})
		stack = append(stack, frame{nd.left, f.depth + 1})
	}
	return lengths
}

// canonicalize sorts entries into canonical order (length, then symbol) and
// assigns the canonical code values, returned parallel to the sorted slice.
func canonicalize(sl []symLen) []uint64 {
	// slices.SortFunc specialises the comparator at compile time; the
	// ordering (length, then symbol) is identical to the previous
	// sort.Slice and the key is strict-total, so the canonical assignment
	// is unchanged.
	slices.SortFunc(sl, func(a, b symLen) int {
		if a.length != b.length {
			return a.length - b.length // lengths are tiny: no overflow
		}
		return cmp.Compare(a.symbol, b.symbol)
	})
	codes := make([]uint64, len(sl))
	var code uint64
	prevLen := 0
	for i, e := range sl {
		code <<= uint(e.length - prevLen)
		codes[i] = code
		code++
		prevLen = e.length
	}
	return codes
}

type symLen struct {
	symbol, length int
}

// codeTable resolves symbol -> (code, length) for the payload loop. Each
// entry packs code<<6 | length (lengths are at most maxCodeLen < 64, so a
// code plus its length fit one 64-bit word). Whenever the histogram was
// dense the table is dense too — one load per symbol — and it lives in the
// histogram's own count buffer, so no second span-sized array is
// allocated. Only a sparse histogram falls back to a map.
type codeTable struct {
	base   int
	dense  []int          // packed entry at symbol-base; nil on the map path
	sparse map[int]uint64 // packed entry by symbol
}

// buildCodeTable packs the canonical codes into a codeTable. counts and
// base are histogram's dense buffer and base: when counts is non-nil its
// entries are overwritten in place (every present symbol appears in sl,
// and absent symbols are never looked up), so counts must not be read as
// counts afterwards.
func buildCodeTable(sl []symLen, codes []uint64, counts []int, base int) codeTable {
	if counts != nil {
		for i, e := range sl {
			counts[e.symbol-base] = int(codes[i]<<6 | uint64(e.length))
		}
		return codeTable{base: base, dense: counts}
	}
	t := codeTable{sparse: make(map[int]uint64, len(sl))}
	for i, e := range sl {
		t.sparse[e.symbol] = codes[i]<<6 | uint64(e.length)
	}
	return t
}

// entry returns the packed code<<6 | length of symbol s.
func (t *codeTable) entry(s int) uint64 {
	if t.dense != nil {
		return uint64(t.dense[s-t.base])
	}
	return t.sparse[s]
}

// pack writes the codes for a run of symbols into w. Codes batch through a
// local 64-bit accumulator that spills to WriteBits only when full — the
// emitted bit sequence is exactly the per-symbol WriteBits sequence (codes
// are at most maxCodeLen < 64 bits and canonical, so each value fits its
// length), but the Writer's field traffic drops to once per ~64 bits.
func (t *codeTable) pack(w *bitstream.Writer, symbols []int) {
	var acc uint64
	var cnt uint
	if t.dense != nil {
		base, tab := t.base, t.dense
		for _, s := range symbols {
			e := uint64(tab[s-base])
			l := uint(e & 63)
			if cnt+l > 64 {
				w.WriteBits(acc, cnt)
				acc, cnt = 0, 0
			}
			acc = acc<<l | e>>6
			cnt += l
		}
	} else {
		for _, s := range symbols {
			e := t.sparse[s]
			l := uint(e & 63)
			if cnt+l > 64 {
				w.WriteBits(acc, cnt)
				acc, cnt = 0, 0
			}
			acc = acc<<l | e>>6
			cnt += l
		}
	}
	if cnt > 0 {
		w.WriteBits(acc, cnt)
	}
}

// Encode compresses symbols into a self-describing byte stream on a pool
// of workers. Output is byte-identical for every worker count: the
// histogram merge is additive, the tree build depends only on the totals,
// and shard payloads concatenate in shard order.
func Encode(symbols []int, workers int) []byte {
	hist, counts, base := histogram(symbols, workers)
	sl := codeLengths(hist)
	codes := canonicalize(sl)

	hdr := make([]byte, 0, 20+11*len(sl))
	hdr = binary.AppendUvarint(hdr, uint64(len(symbols)))
	hdr = binary.AppendUvarint(hdr, uint64(len(sl)))
	for _, e := range sl {
		hdr = binary.AppendVarint(hdr, int64(e.symbol))
		hdr = binary.AppendUvarint(hdr, uint64(e.length))
	}

	table := buildCodeTable(sl, codes, counts, base)
	if counts != nil {
		defer parallel.PutInts(counts)
	}
	// Presize the payload buffer: the exact bit total is a histogram dot
	// product, so pack's append-growth and the shard concatenation below
	// both land in a single allocation.
	var totalBits int
	for _, e := range hist {
		totalBits += e.count * int(table.entry(e.symbol)&63)
	}
	var w bitstream.Writer
	w.Grow(totalBits)
	// Shard 0 packs straight into w; the other shards pack into private
	// writers appended in shard order.
	shards := parallel.Shards(workers, len(symbols))
	tail := make([]bitstream.Writer, max(shards-1, 0))
	parallel.ForShard(workers, len(symbols), func(sh, a, b int) {
		sw := &w
		if sh > 0 {
			sw = &tail[sh-1]
		}
		table.pack(sw, symbols[a:b])
	})
	for i := range tail {
		w.AppendWriter(&tail[i])
	}
	payload := w.Bytes()

	out := make([]byte, 0, len(hdr)+len(payload))
	out = append(out, hdr...)
	out = append(out, payload...)
	return out
}

// Decode reverses Encode. Every failure wraps compress.ErrTruncated or
// compress.ErrCorrupt, and header-claimed allocations are bounded against
// the input that must back them (compress.CheckedAlloc).
func Decode(data []byte) ([]int, error) { return DecodeInto(nil, data) }

// DecodeInto is Decode writing the symbols into dst's backing array when
// its capacity holds the stream's symbol count, and into a fresh slice
// otherwise, so a caller can decode into arena scratch of known size.
//
// Decoding runs in two regions with one outcome. While at least
// fastTailBytes payload bytes and fastTailSymbols unwritten symbols
// remain, a local bit cursor reads 64-bit windows straight from the
// payload and a multi-symbol table resolves up to three short codes per
// lookup. Long codes, the last bytes and short payloads take the
// per-symbol path (single-symbol table, then the per-bit group walk), so
// every value, every error and every error text is that of the per-bit
// reference decoder.
func DecodeInto(dst []int, data []byte) ([]int, error) {
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
		if dst == nil {
			return []int{}, nil
		}
		return dst[:0], nil
	}
	if nsyms == 0 {
		return nil, fmt.Errorf("huffman: empty alphabet with nonzero count: %w", compress.ErrCorrupt)
	}
	// Bound both counts against the data that must back them, so corrupt
	// headers cannot drive huge allocations: every alphabet entry costs at
	// least 2 header bytes and every encoded symbol at least 1 payload bit.
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
	// Header order must already be canonical; enforce it.
	for i := 1; i < len(sl); i++ {
		if sl[i].length < sl[i-1].length ||
			(sl[i].length == sl[i-1].length && sl[i].symbol <= sl[i-1].symbol) {
			return nil, fmt.Errorf("huffman: header not in canonical order: %w", compress.ErrCorrupt)
		}
	}

	// Rebuild canonical codes and index them by length: code lengths are
	// at most maxCodeLen, so a flat array replaces the map probe that used
	// to sit inside the per-bit decode loop. For payloads worth the setup
	// cost, additionally fill a first-level lookup table resolving every
	// code of length ≤ tableBits in one probe.
	var groups [maxCodeLen + 1]lenGroup
	ordered := make([]int, len(sl))
	var table []uint64
	if count >= tableMinSymbols {
		table = parallel.Uint64s(1 << tableBits)
		defer parallel.PutUint64s(table)
		for i := range table {
			table[i] = 0
		}
	}
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
		if table != nil && e.length <= tableBits && code < 1<<uint(e.length) {
			// Every tableBits-bit window starting with this code maps to it;
			// prefix-freeness keeps the fill ranges disjoint. Entries pack
			// idx<<8|length; length ≥ 1 makes 0 an unambiguous "no short
			// code" marker. A corrupt (Kraft-oversubscribed) header can push
			// a canonical code to ≥ 2^length; such a code can never equal
			// any length-bit window, so the group walk treats it as
			// unreachable — skipping it here preserves that exactly and
			// keeps the fill in bounds.
			ent := uint64(i)<<8 | uint64(e.length)
			lo := code << uint(tableBits-e.length)
			for j := lo + 1<<uint(tableBits-e.length); j > lo; j-- {
				table[j-1] = ent
			}
		}
		code++
		prevLen = e.length
	}

	var out []int
	if uint64(cap(dst)) >= count {
		out = dst[:count]
	} else {
		out = make([]int, count)
	}
	payload := data[pos:]
	r := bitstream.NewReader(payload)
	n := 0
	if count >= multiMinSymbols && len(sl) < multiMaxAlphabet {
		multi := parallel.Uint64s(1 << tableBits)
		defer parallel.PutUint64s(multi)
		buildMultiTable(multi, table)
		if n, err = decodeFast(r, payload, multi, ordered, out, &groups); err != nil {
			return nil, err
		}
	}
	if table != nil {
		for n < len(out) {
			e := table[r.Peek64()>>(64-tableBits)]
			if e != 0 {
				// A matched entry longer than the remaining genuine bits can
				// only arise from zero padding past the end of the stream —
				// the per-bit walk would have run out of bits mid-code.
				l := int(e & 0xff)
				if l > r.Remaining() {
					return nil, fmt.Errorf("huffman: truncated payload after %d symbols: %w", n, compress.ErrTruncated)
				}
				r.Advance(l)
				out[n] = ordered[e>>8]
				n++
				continue
			}
			// No code of length ≤ tableBits prefixes the window: a long
			// code, corruption, or truncation. The per-bit walk reproduces
			// the exact pre-table outcome for all three.
			sym, err := decodeOneSlow(r, &groups, ordered, n)
			if err != nil {
				return nil, err
			}
			out[n] = sym
			n++
		}
		return out, nil
	}
	for ; n < len(out); n++ {
		sym, err := decodeOneSlow(r, &groups, ordered, n)
		if err != nil {
			return nil, err
		}
		out[n] = sym
	}
	return out, nil
}

// buildMultiTable derives the multi-symbol table from the single-symbol
// one. A window resolves greedily — its first code, the code right after
// it, then a third — for as long as each code lies wholly inside the
// tableBits-bit window (bits below the window are not payload, so a code
// reaching into them is left to the next lookup). That is exactly what
// repeated single-symbol decoding produces.
//
// Rather than decode every window, the build enumerates the code
// sequences that fit: the short codes tile the single table from window 0
// upward in canonical order, with non-decreasing lengths, so walking the
// table in code-sized strides visits each short code once and can stop at
// the first code that no longer fits (a zero entry ends the short codes).
// Each sequence owns a contiguous window range; longer sequences overwrite
// the ranges of their own prefixes, so at most 3·2^tableBits stores happen.
//
// Entries pack totalBits | k<<8 | idx1<<16 | idx2<<32 | idx3<<48, where k
// (0..3) is the number of resolved symbols and the idx are canonical
// indices; 0 marks a window whose first code is long or invalid.
func buildMultiTable(multi, single []uint64) {
	clear(multi)
	const bits = tableBits
	for w1 := 0; w1 < 1<<bits; {
		e1 := single[w1]
		if e1 == 0 {
			return
		}
		l1 := int(e1 & 0xff)
		ent1 := e1>>8<<16 | 1<<8 | uint64(l1)
		fillWindows(multi, w1, bits-l1, ent1)
		for w2 := 0; w2 < 1<<bits; {
			e2 := single[w2]
			l2 := int(e2 & 0xff)
			if e2 == 0 || l1+l2 > bits {
				break
			}
			s2 := w1 | w2>>l1
			ent2 := ent1&^0x3ff | e2>>8<<32 | 2<<8 | uint64(l1+l2)
			fillWindows(multi, s2, bits-l1-l2, ent2)
			for w3 := 0; w3 < 1<<bits; {
				e3 := single[w3]
				l3 := int(e3 & 0xff)
				if e3 == 0 || l1+l2+l3 > bits {
					break
				}
				ent3 := ent2&^0x3ff | e3>>8<<48 | 3<<8 | uint64(l1+l2+l3)
				fillWindows(multi, s2|w3>>(l1+l2), bits-l1-l2-l3, ent3)
				w3 += 1 << (bits - l3)
			}
			w2 += 1 << (bits - l2)
		}
		w1 += 1 << (bits - l1)
	}
}

// fillWindows stores ent in the 2^free windows starting at start.
func fillWindows(multi []uint64, start, free int, ent uint64) {
	r := multi[start : start+1<<free]
	for i := range r {
		r[i] = ent
	}
}

// decodeFast decodes from the start of the payload while at least
// fastTailBytes bytes and fastTailSymbols unwritten symbols remain, and
// returns the number of symbols written to out with r positioned after
// them. A local bit cursor
// replaces the Reader's per-symbol bookkeeping; windows whose first code
// is not short go through decodeOneSlow, whose errors are the reference
// decoder's. Each lookup stores three symbols and keeps k of them, so the
// extra stores land in slots the next lookup overwrites.
func decodeFast(r *bitstream.Reader, payload []byte, multi []uint64, ordered, out []int, groups *[maxCodeLen + 1]lenGroup) (int, error) {
	n, bit := 0, r.Pos()
	lastByte := len(payload) - fastTailBytes
	for n+fastTailSymbols <= len(out) && bit>>3 <= lastByte {
		// At least 57 genuine bits: room for lookupsPerWindow lookups of
		// at most tableBits bits each.
		win := binary.BigEndian.Uint64(payload[bit>>3:]) << uint(bit&7)
		var e uint64
		for j := 0; j < lookupsPerWindow; j++ {
			e = multi[win>>(64-tableBits)]
			if e == 0 {
				break
			}
			out[n] = ordered[e>>16&0xffff]
			out[n+1] = ordered[e>>32&0xffff]
			out[n+2] = ordered[e>>48]
			n += int(e >> 8 & 3)
			l := e & 0xff
			bit += int(l)
			win <<= l
		}
		if e != 0 {
			continue
		}
		r.Advance(bit - r.Pos())
		sym, err := decodeOneSlow(r, groups, ordered, n)
		if err != nil {
			return n, err
		}
		out[n] = sym
		n++
		bit = r.Pos()
	}
	r.Advance(bit - r.Pos())
	return n, nil
}

// lenGroup indexes one canonical code length: its first code value and the
// contiguous run it occupies in canonical symbol order.
type lenGroup struct {
	first  uint64 // first code of this length
	offset int    // index into ordered symbols of first code
	count  int
}

// decodeOneSlow decodes a single symbol with the per-bit group walk — the
// path for codes longer than tableBits, for corrupt or truncated tails, and
// for payloads too short to amortize the table build.
func decodeOneSlow(r *bitstream.Reader, groups *[maxCodeLen + 1]lenGroup, ordered []int, decoded int) (int, error) {
	var v uint64
	l := 0
	for l < maxCodeLen {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("huffman: truncated payload after %d symbols: %w", decoded, compress.ErrTruncated)
		}
		v = v<<1 | uint64(b)
		l++
		g := &groups[l]
		if g.count == 0 {
			continue
		}
		if idx := v - g.first; v >= g.first && idx < uint64(g.count) {
			return ordered[g.offset+int(idx)], nil
		}
	}
	return 0, fmt.Errorf("huffman: invalid code in payload: %w", compress.ErrCorrupt)
}
