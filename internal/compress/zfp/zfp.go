// Package zfp implements a fixed-precision transform codec modeled on
// Lindstrom's ZFP (TVCG 2014), the lossy compressor the paper evaluates in
// fixed-precision mode.
//
// The pipeline follows the three steps the paper describes (Section II-A):
//
//  1. Alignment: each 4^d block is aligned to a common exponent and
//     converted to fixed-point signed integers.
//  2. Decorrelation: a reversible integer lifting transform (ZFP's
//     orthogonal-ish basis) is applied along each dimension, concentrating
//     block energy into few low-frequency coefficients.
//  3. Embedded encoding: coefficients are mapped to negabinary and coded one
//     bit plane at a time with group testing, keeping exactly `Precision`
//     planes per block.
//
// Compression is therefore data dependent exactly like real ZFP: smooth
// blocks produce long zero runs in the high bit planes and cost almost
// nothing, while noisy blocks pay the full bit budget.
//
// Blocks are mutually independent, which the codec exploits two ways: the
// encoder shards the block list across a bounded worker pool (each shard
// writes a private bitstream, concatenated in shard order, so the output
// is byte-identical to a serial pass at any worker count), and the decoder
// runs the plane transpose, inverse transform and scatter of parsed blocks
// in parallel, behind the bit-serial parse. Workers == 1 reproduces the
// serial execution exactly.
package zfp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/invariant"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// Hoisted observability metrics. The per-block kernels are far too hot for
// a span per block, so each shard snapshots obs.Enabled() once, accumulates
// plain local nanosecond/count tallies, and flushes them here at shard end
// (the accumulate-then-flush pattern from internal/obs).
var (
	obsBlocks      = obs.GetCounter("zfp.blocks")
	obsEmptyBlocks = obs.GetCounter("zfp.empty_blocks")
	obsPlanesHist  = obs.GetHistogram("zfp.planes_per_block", []int64{8, 16, 24, 32, 40, 48, 56, 64})
)

// Codec is a ZFP-style compressor in one of two modes, mirroring real
// ZFP's fixed-precision and fixed-accuracy modes. The zero value is not
// usable; construct with New or NewAccuracy.
type Codec struct {
	mode      byte    // modePrecision, modeAccuracy, or modeRate
	precision uint    // bit planes kept per block (precision mode), 1..60
	tolerance float64 // absolute error tolerance (accuracy mode)
	rate      uint    // bits per value (rate mode), 1..62
}

// Stream/codec modes.
const (
	modePrecision byte = 0
	modeAccuracy  byte = 1
)

// MaxPrecision is the largest representable number of bit planes.
const MaxPrecision = 60

// fixedPointBits positions block values at 2^fixedPointBits, leaving
// headroom for the lifting transform's range expansion (< 4x in 3-D).
const fixedPointBits = 60

// intprec is the total number of negabinary bit planes per coefficient.
const intprec = 64

// New returns a codec that keeps precision bit planes per block (the
// paper's "16 bits of precision" corresponds to New(16)).
func New(precision int) (*Codec, error) {
	if precision < 1 || precision > MaxPrecision {
		return nil, fmt.Errorf("zfp: precision %d out of range [1,%d]", precision, MaxPrecision)
	}
	return &Codec{mode: modePrecision, precision: uint(precision)}, nil
}

// NewAccuracy returns a fixed-accuracy codec: every decompressed value is
// within tol of the original (absolute error bound), with the bit budget
// varying per block — large-magnitude blocks spend more planes. This is
// ZFP's -a mode.
func NewAccuracy(tol float64) (*Codec, error) {
	if tol <= 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
		return nil, fmt.Errorf("zfp: invalid tolerance %v", tol)
	}
	return &Codec{mode: modeAccuracy, tolerance: tol}, nil
}

// MustNewAccuracy is NewAccuracy but panics on invalid tolerance.
func MustNewAccuracy(tol float64) *Codec {
	c, err := NewAccuracy(tol)
	if err != nil {
		panic(err)
	}
	return c
}

// MustNew is New but panics on invalid precision; for use in tables.
func MustNew(precision int) *Codec {
	c, err := New(precision)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements compress.Codec.
func (c *Codec) Name() string {
	switch c.mode {
	case modeAccuracy:
		return fmt.Sprintf("zfp(a=%.0e)", c.tolerance)
	case modeRate:
		return fmt.Sprintf("zfp(r=%d)", c.rate)
	default:
		return fmt.Sprintf("zfp(p=%d)", c.precision)
	}
}

// Lossless implements compress.Codec.
func (c *Codec) Lossless() bool { return false }

// Precision returns the configured number of bit planes (precision mode).
func (c *Codec) Precision() int { return int(c.precision) }

// AbsErrorBound implements compress.ErrorBounded: only accuracy mode
// guarantees a pointwise absolute bound; precision and rate modes trade
// accuracy per block.
func (c *Codec) AbsErrorBound(f *grid.Field) (float64, bool) {
	if c.mode == modeAccuracy {
		return c.tolerance, true
	}
	return 0, false
}

// kminFor returns the lowest bit plane to encode for a block with max
// exponent emax. In precision mode it is a fixed count from the top; in
// accuracy mode it is the plane whose weight (in value units, after the
// transform's <8x amplification headroom) first drops below the tolerance.
func kminFor(mode byte, precision uint, tolerance float64, emax int) int {
	if mode == modePrecision {
		return intprec - int(precision)
	}
	// tolerance = f * 2^e with f in [0.5,1), so floor(log2 tol) = e-1.
	_, e := math.Frexp(tolerance)
	// Plane k carries value weight 2^(k - fixedPointBits + emax); reserve
	// 4 bits for negabinary carry + inverse-transform amplification in 3-D.
	kmin := (e - 1) + fixedPointBits - 4 - emax
	if kmin < intprec-MaxPrecision {
		kmin = intprec - MaxPrecision
	}
	if kmin > intprec {
		kmin = intprec
	}
	return kmin
}

// negabinary mask: converts two's complement to negabinary and back.
const nbmask = 0xaaaaaaaaaaaaaaaa

func int2nb(i int64) uint64 { return (uint64(i) + nbmask) ^ nbmask }
func nb2int(u uint64) int64 { return int64((u ^ nbmask) - nbmask) }

// fwdLift applies ZFP's forward decorrelating lifting step to a stride-s
// 4-vector in p.
func fwdLift(p []int64, base, s int) {
	x := p[base]
	y := p[base+s]
	z := p[base+2*s]
	w := p[base+3*s]

	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1

	p[base] = x
	p[base+s] = y
	p[base+2*s] = z
	p[base+3*s] = w
}

// invLift is the exact inverse of fwdLift.
func invLift(p []int64, base, s int) {
	x := p[base]
	y := p[base+s]
	z := p[base+2*s]
	w := p[base+3*s]

	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w

	p[base] = x
	p[base+s] = y
	p[base+2*s] = z
	p[base+3*s] = w
}

// transformForward decorrelates a 4^rank block along every dimension.
func transformForward(blk []int64, rank int) {
	switch rank {
	case 1:
		fwdLift(blk, 0, 1)
	case 2:
		for y := 0; y < 4; y++ { // along x
			fwdLift(blk, 4*y, 1)
		}
		for x := 0; x < 4; x++ { // along y
			fwdLift(blk, x, 4)
		}
	case 3:
		// The 48 lifts of a full 3-D block run on a fixed-size array view
		// through the value-form lift4, whose inlined body keeps each
		// 4-vector in registers: constant indices eliminate the bounds
		// checks and the load/store traffic of the slice-based fwdLift.
		// Lifts within one pass touch disjoint 4-vectors, so this is the
		// same computation in the same pass order.
		p := (*[64]int64)(blk)
		for b := 0; b <= 60; b += 4 { // along x
			p[b], p[b+1], p[b+2], p[b+3] = lift4(p[b], p[b+1], p[b+2], p[b+3])
		}
		for z := 0; z < 64; z += 16 { // along y
			for i := z; i < z+4; i++ {
				p[i], p[i+4], p[i+8], p[i+12] = lift4(p[i], p[i+4], p[i+8], p[i+12])
			}
		}
		for i := 0; i < 16; i++ { // along z
			p[i], p[i+16], p[i+32], p[i+48] = lift4(p[i], p[i+16], p[i+32], p[i+48])
		}
	}
}

// lift4 is fwdLift in value form: same operations in the same order, but on
// register operands so call sites with constant indices inline to pure
// register arithmetic.
func lift4(x, y, z, w int64) (int64, int64, int64, int64) {
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	return x, y, z, w
}

// transformInverse undoes transformForward (reverse order, inverse steps).
func transformInverse(blk []int64, rank int) {
	switch rank {
	case 1:
		invLift(blk, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(blk, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift(blk, 4*y, 1)
		}
	case 3:
		// The mirror of transformForward's rank-3 case: the value-form
		// invLift4 on a fixed-size array view, same passes in the same
		// order.
		p := (*[64]int64)(blk)
		for i := 0; i < 16; i++ { // along z
			p[i], p[i+16], p[i+32], p[i+48] = invLift4(p[i], p[i+16], p[i+32], p[i+48])
		}
		for z := 0; z < 64; z += 16 { // along y
			for i := z; i < z+4; i++ {
				p[i], p[i+4], p[i+8], p[i+12] = invLift4(p[i], p[i+4], p[i+8], p[i+12])
			}
		}
		for b := 0; b <= 60; b += 4 { // along x
			p[b], p[b+1], p[b+2], p[b+3] = invLift4(p[b], p[b+1], p[b+2], p[b+3])
		}
	}
}

// invLift4 is invLift in value form, as lift4 is fwdLift's.
func invLift4(x, y, z, w int64) (int64, int64, int64, int64) {
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	return x, y, z, w
}

// transpose64 anti-transposes the 64x64 bit matrix held in m in place:
// bit j of output word i equals bit 63-i of input word 63-j (the classic
// Hacker's Delight word-swap network, which transposes under the
// column-j-is-bit-63-j convention). The operation is an involution. The
// plane packers below compose it with reversed word indexing to get the
// plain transpose they need, converting a block's 64 negabinary
// coefficients into its 64 bit-plane words (and back) in ~6*64 word
// operations instead of the scalar coder's 64 steps per plane.
func transpose64(m *[64]uint64) {
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (m[k] ^ (m[k+int(j)] >> j)) & mask
			m[k] ^= t
			m[k+int(j)] ^= t << j
		}
		j >>= 1
		mask ^= mask << j
	}
}

// transposeTop is transpose64 restricted to the first `rows` output words:
// words [0, rows) equal the full anti-transpose, words beyond hold
// unspecified values. The butterfly stage with span j only has to cover the
// prefix rounded up to a whole 2j-aligned pair block — working backwards
// from the needed outputs, stage j must produce roundup(rows, j) correct
// words from roundup(rows, 2j) correct inputs — so the per-stage pair count
// shrinks geometrically instead of staying at 32. The precision-16 encoder
// reads only 16 of the 64 plane words, which cuts the butterfly count from
// 192 to 80.
func transposeTop(m *[64]uint64, rows int) {
	if rows >= 64 {
		transpose64(m)
		return
	}
	if rows <= 0 {
		return
	}
	if rows <= 16 {
		transposeTop16(m)
		return
	}
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		lim := (rows + int(2*j) - 1) &^ int(2*j-1) // roundup(rows, 2j)
		if lim > 64 {
			lim = 64
		}
		for k := 0; k < lim; k = (k + int(j) + 1) &^ int(j) {
			t := (m[k] ^ (m[k+int(j)] >> j)) & mask
			m[k] ^= t
			m[k+int(j)] ^= t << j
		}
		j >>= 1
		mask ^= mask << j
	}
}

// transposeTop16 is transposeTop specialised to rows <= 16 — the hot shape:
// the default precision-16 encoder reads exactly 16 plane words. The six
// butterfly stages are written out with constant spans and constant loop
// bounds so the compiler drops every bounds check and can schedule the
// independent butterflies across execution ports; the generic loop's
// bit-trick index stepping defeats both. The butterflies performed are
// exactly those of the generic prefix-limited network (80 in total), so
// words [0, 16) hold the same values.
func transposeTop16(m *[64]uint64) {
	// The first two stages skip the partner write-back: stage j=32 feeds
	// only words [0,32) to stage j=16, and j=16 feeds only [0,16) onward,
	// so the upper-half updates are dead here. With the write-back gone the
	// xor butterfly a ^= (a^(b>>j))&mask folds to the masked merge
	// a&^mask | (b>>j)&mask — identical low words, fewer operations.
	for k := 0; k < 32; k++ { // j=32, lim=64
		m[k] = m[k]&^0x00000000FFFFFFFF | m[k+32]>>32
	}
	for k := 0; k < 16; k++ { // j=16, lim=32
		m[k] = m[k]&^0x0000FFFF0000FFFF | m[k+16]>>16&0x0000FFFF0000FFFF
	}
	for k := 0; k < 8; k++ { // j=8, lim=16
		t := (m[k] ^ (m[k+8] >> 8)) & 0x00FF00FF00FF00FF
		m[k] ^= t
		m[k+8] ^= t << 8
	}
	for base := 0; base < 16; base += 8 { // j=4, lim=16
		for k := base; k < base+4; k++ {
			t := (m[k] ^ (m[k+4] >> 4)) & 0x0F0F0F0F0F0F0F0F
			m[k] ^= t
			m[k+4] ^= t << 4
		}
	}
	for base := 0; base < 16; base += 4 { // j=2, lim=16
		for k := base; k < base+2; k++ {
			t := (m[k] ^ (m[k+2] >> 2)) & 0x3333333333333333
			m[k] ^= t
			m[k+2] ^= t << 2
		}
	}
	for k := 0; k < 16; k += 2 { // j=1, lim=16
		t := (m[k] ^ (m[k+1] >> 1)) & 0x5555555555555555
		m[k] ^= t
		m[k+1] ^= t << 1
	}
}

// transposeLow is transpose64 for a matrix whose words [rows, 64) are
// zero — the decode-side twin of transposeTop. Each butterfly stage swaps a
// different index bit, so the six stages commute. Run in ascending span
// order, the words before the span-j stage are zero from roundup(rows, j)
// on, and a butterfly over two zero words is a no-op, so the stage only
// covers the pair blocks below roundup(rows, 2j). When rows <= 32 the last
// stage's partners are all still zero, and its butterfly reduces to
// splitting each low word. All 64 output words equal the full
// anti-transpose. The decoder's planes fill words [0, intprec-kmin), so a
// block that codes 16 planes costs 48 butterflies and 32 splits instead of
// 192 butterflies. As in transposeTop16, the stages are written out with
// constant spans and masks; indices are taken mod 64, so the compiler
// drops every bounds check.
func transposeLow(m *[64]uint64, rows int) {
	if rows >= 64 {
		transpose64(m)
		return
	}
	lim := (rows + 1) &^ 1 // j=1
	for k := 0; k < lim; k += 2 {
		t := (m[k&63] ^ (m[(k+1)&63] >> 1)) & 0x5555555555555555
		m[k&63] ^= t
		m[(k+1)&63] ^= t << 1
	}
	lim = (rows + 3) &^ 3 // j=2
	for base := 0; base < lim; base += 4 {
		for k := base; k < base+2; k++ {
			t := (m[k&63] ^ (m[(k+2)&63] >> 2)) & 0x3333333333333333
			m[k&63] ^= t
			m[(k+2)&63] ^= t << 2
		}
	}
	lim = (rows + 7) &^ 7 // j=4
	for base := 0; base < lim; base += 8 {
		for k := base; k < base+4; k++ {
			t := (m[k&63] ^ (m[(k+4)&63] >> 4)) & 0x0F0F0F0F0F0F0F0F
			m[k&63] ^= t
			m[(k+4)&63] ^= t << 4
		}
	}
	lim = (rows + 15) &^ 15 // j=8
	for base := 0; base < lim; base += 16 {
		for k := base; k < base+8; k++ {
			t := (m[k&63] ^ (m[(k+8)&63] >> 8)) & 0x00FF00FF00FF00FF
			m[k&63] ^= t
			m[(k+8)&63] ^= t << 8
		}
	}
	lim = (rows + 31) &^ 31 // j=16
	for base := 0; base < lim; base += 32 {
		for k := base; k < base+16; k++ {
			t := (m[k&63] ^ (m[(k+16)&63] >> 16)) & 0x0000FFFF0000FFFF
			m[k&63] ^= t
			m[(k+16)&63] ^= t << 16
		}
	}
	if rows > 32 { // j=32
		for k := 0; k < 32; k++ {
			t := (m[k] ^ (m[k+32] >> 32)) & 0x00000000FFFFFFFF
			m[k] ^= t
			m[k+32] ^= t << 32
		}
		return
	}
	for k := 0; k < 32; k++ {
		t := m[k] & 0x00000000FFFFFFFF
		m[k] ^= t
		m[k+32] = t << 32
	}
}

// encodePlane writes one bit plane x (bit i of x = plane bit of value i)
// using ZFP's verbatim-prefix + group-tested run-length scheme. n is the
// count of values already known significant; the updated n is returned.
//
// The emitted stream is "test 1, zero run, terminating 1" per significant
// value, so instead of walking the plane bit by bit the loop jumps from set
// bit to set bit with TrailingZeros64 and emits each whole group — test
// bit, run, terminator — as one value through a 64-bit accumulator. A dense
// plane costs a couple of WriteBits calls; a sparse one costs one per set
// bit, never one per zero.
func encodePlane(w *bitstream.Writer, x uint64, size, n int) int {
	if n > 0 {
		// Verbatim prefix: the low n bits of x, least significant first.
		w.WriteBits(bits.Reverse64(x)>>(64-uint(n)), uint(n))
		x >>= uint(n)
	}
	var acc uint64
	var cnt uint
	for n < size {
		if x == 0 {
			// Group test fails: a single 0 ends the plane.
			if cnt == 64 {
				w.WriteBits(acc, 64)
				acc, cnt = 0, 0
			}
			acc <<= 1
			cnt++
			break
		}
		tz := bits.TrailingZeros64(x)
		var v uint64
		var k uint
		if tz >= size-1-n {
			// The next set bit sits at the plane's final position: the
			// terminating 1 is implicit, so the group is the test bit plus
			// the zero run only.
			k = uint(size - n)
			v = 1 << (k - 1)
			n = size
		} else {
			// Test bit, tz zeros, terminating 1 — one batch of tz+2 bits.
			k = uint(tz) + 2
			v = 1<<(k-1) | 1
			x >>= uint(tz + 1)
			n += tz + 1
		}
		if cnt+k > 64 {
			w.WriteBits(acc, cnt)
			acc, cnt = 0, 0
		}
		acc = acc<<k | v
		cnt += k
	}
	if cnt > 0 {
		w.WriteBits(acc, cnt)
	}
	return n
}

// decodePlane mirrors encodePlane: one Peek64 window exposes the test bit
// and the whole zero run at once, so LeadingZeros64 replaces the per-bit
// read loop. Availability is checked against Remaining before every
// Advance, which reproduces the per-bit reader's ErrOutOfBits behaviour on
// truncated streams (window positions past the end read as zero and are
// never consumed).
func decodePlane(r *bitstream.Reader, size, n int) (uint64, int, error) {
	var x uint64
	if n > 0 {
		// The verbatim prefix was emitted least-significant-bit first.
		v, err := r.ReadBits(uint(n))
		if err != nil {
			return 0, 0, err
		}
		x = bits.Reverse64(v) >> (64 - uint(n))
	}
	for n < size {
		rem := r.Remaining()
		if rem == 0 {
			return 0, 0, bitstream.ErrOutOfBits
		}
		win := r.Peek64()
		if win>>63 == 0 {
			// Group test fails: the plane holds no further set bits.
			r.Advance(1)
			break
		}
		lim := size - 1 - n
		z := bits.LeadingZeros64(win << 1) // zeros after the test bit
		if z >= lim {
			// The run reaches the final position; its 1 is implicit. The
			// encoder emitted 1+lim bits, all of which must really exist.
			if rem < 1+lim {
				return 0, 0, bitstream.ErrOutOfBits
			}
			r.Advance(1 + lim)
			x |= 1 << uint(size-1)
			n = size
		} else {
			// A genuine 1 inside the window is never padding, so the z+2
			// consumed bits are guaranteed present; the check is defensive.
			if rem < z+2 {
				return 0, 0, bitstream.ErrOutOfBits
			}
			r.Advance(z + 2)
			x |= 1 << uint(n+z)
			n += z + 1
		}
	}
	return x, n, nil
}

// Sequency-order permutations: after the decorrelating transform,
// coefficients are stored ordered by total sequency (the sum of per-
// dimension frequency indices), exactly like real ZFP's PERM tables. Low
// frequencies — the large coefficients of smooth blocks — cluster at the
// front, so the group-tested bit-plane coder terminates its scans early.
var (
	perm1 = sequencyPerm(1)
	perm2 = sequencyPerm(2)
	perm3 = sequencyPerm(3)
)

// permFor returns the coefficient permutation for a rank.
func permFor(rank int) []int {
	switch rank {
	case 1:
		return perm1
	case 2:
		return perm2
	default:
		return perm3
	}
}

// sequencyPerm builds the index ordering by total sequency with index
// order as the (stable) tie-break.
func sequencyPerm(rank int) []int {
	size := 1 << (2 * uint(rank))
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	seq := func(i int) int {
		s := 0
		for d := 0; d < rank; d++ {
			s += (i >> (2 * uint(d))) & 3
		}
		return s
	}
	// Stable insertion sort by sequency (tiny fixed-size input).
	for a := 1; a < size; a++ {
		for b := a; b > 0 && seq(idx[b]) < seq(idx[b-1]); b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	return idx
}

// blockShape describes the valid extents of one (possibly partial) block.
type blockShape struct {
	origin [3]int // block origin in field coordinates (unused dims = 0)
	size   [3]int // valid samples per dim, 1..4 (unused dims = 1)
}

// blockCount returns the number of 4^rank blocks covering dims without
// materialising them (hostile headers can claim millions of blocks).
func blockCount(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= (d + 3) / 4
	}
	return n
}

// blocks enumerates the block grid of a field in raster order.
func blocks(dims []int) []blockShape {
	d := [3]int{1, 1, 1}
	for i, v := range dims {
		d[3-len(dims)+i] = v
	}
	out := make([]blockShape, 0, blockCount(dims))
	for z := 0; z < d[0]; z += 4 {
		for y := 0; y < d[1]; y += 4 {
			for x := 0; x < d[2]; x += 4 {
				b := blockShape{origin: [3]int{z, y, x}}
				b.size[0] = min(4, d[0]-z)
				b.size[1] = min(4, d[1]-y)
				b.size[2] = min(4, d[2]-x)
				out = append(out, b)
			}
		}
	}
	return out
}

// gather copies one block into blk (64 entries max used: 4^rank), padding
// partial blocks by replicating the last valid sample along each dimension.
func gather(f *grid.Field, b blockShape, vals []float64) {
	rank := f.Rank()
	// Normalised dims: treat every field as (ny, nx) with leading 1s; the
	// z extent only shapes the block, never the flat index.
	var ny, nx int
	switch rank {
	case 1:
		ny, nx = 1, f.Dims[0]
	case 2:
		ny, nx = f.Dims[0], f.Dims[1]
	default:
		ny, nx = f.Dims[1], f.Dims[2]
	}
	// Full-block fast path: every row of a complete block is 4 contiguous
	// samples, so the interior (the vast majority of blocks on non-tiny
	// fields) copies rows directly with no per-sample clamping.
	// The 4-sample rows are moved as array assignments rather than copy():
	// a 32-byte memmove call costs more in call overhead than the move
	// itself, and these run once per row of every block.
	if b.size == [3]int{1, 4, 4} && rank == 2 {
		base := b.origin[1]*nx + b.origin[2]
		for y := 0; y < 4; y++ {
			*(*[4]float64)(vals[4*y : 4*y+4]) = *(*[4]float64)(f.Data[base+y*nx : base+y*nx+4])
		}
		return
	}
	if b.size == [3]int{4, 4, 4} && rank == 3 {
		base := (b.origin[0]*ny+b.origin[1])*nx + b.origin[2]
		for z := 0; z < 4; z++ {
			row := base + z*ny*nx
			for y := 0; y < 4; y++ {
				*(*[4]float64)(vals[16*z+4*y : 16*z+4*y+4]) = *(*[4]float64)(f.Data[row+y*nx : row+y*nx+4])
			}
		}
		return
	}
	at := func(z, y, x int) float64 {
		return f.Data[(z*ny+y)*nx+x]
	}
	zl, yl, xl := 4, 4, 4
	if rank < 3 {
		zl = 1
	}
	if rank < 2 {
		yl = 1
	}
	for z := 0; z < zl; z++ {
		sz := b.origin[0] + min(z, b.size[0]-1)
		for y := 0; y < yl; y++ {
			sy := b.origin[1] + min(y, b.size[1]-1)
			for x := 0; x < xl; x++ {
				sx := b.origin[2] + min(x, b.size[2]-1)
				vals[(z*yl+y)*xl+x] = at(sz, sy, sx)
			}
		}
	}
}

// scatter writes the valid region of a decoded block back into f.
func scatter(f *grid.Field, b blockShape, vals []float64) {
	rank := f.Rank()
	var ny, nx int
	switch rank {
	case 1:
		ny, nx = 1, f.Dims[0]
	case 2:
		ny, nx = f.Dims[0], f.Dims[1]
	default:
		ny, nx = f.Dims[1], f.Dims[2]
	}
	// Full-block fast path mirroring gather's: contiguous 4-sample rows,
	// moved as array assignments to skip the memmove call overhead.
	if b.size == [3]int{1, 4, 4} && rank == 2 {
		base := b.origin[1]*nx + b.origin[2]
		for y := 0; y < 4; y++ {
			*(*[4]float64)(f.Data[base+y*nx : base+y*nx+4]) = *(*[4]float64)(vals[4*y : 4*y+4])
		}
		return
	}
	if b.size == [3]int{4, 4, 4} && rank == 3 {
		base := (b.origin[0]*ny+b.origin[1])*nx + b.origin[2]
		for z := 0; z < 4; z++ {
			row := base + z*ny*nx
			for y := 0; y < 4; y++ {
				*(*[4]float64)(f.Data[row+y*nx : row+y*nx+4]) = *(*[4]float64)(vals[16*z+4*y : 16*z+4*y+4])
			}
		}
		return
	}
	yl, xl := 4, 4
	if rank < 2 {
		yl = 1
	}
	for z := 0; z < b.size[0]; z++ {
		for y := 0; y < b.size[1]; y++ {
			for x := 0; x < b.size[2]; x++ {
				f.Data[((b.origin[0]+z)*ny+(b.origin[1]+y))*nx+(b.origin[2]+x)] = vals[(z*yl+y)*xl+x]
			}
		}
	}
}

// blockScratch is the per-worker reusable buffer set of the block kernels,
// arena-backed so steady-state compression allocates nothing per block.
type blockScratch struct {
	vals []float64
	blk  []int64
	nb   []uint64
}

func newBlockScratch(size int) *blockScratch {
	return &blockScratch{
		vals: parallel.Floats(size),
		blk:  parallel.Int64s(size),
		nb:   parallel.Uint64s(size),
	}
}

func (s *blockScratch) release() {
	parallel.PutFloats(s.vals)
	parallel.PutInt64s(s.blk)
	parallel.PutUint64s(s.nb)
}

// Compress implements compress.Codec: the block kernels run on cfg's pool,
// and the codec's spans parent onto the span carried by ctx. The size-aware
// cutover keeps small inputs serial no matter the budget, because forking
// the pool costs more than it saves below ~half a MiB per shard.
func (c *Codec) Compress(ctx context.Context, f *grid.Field, cfg parallel.Config) ([]byte, error) {
	ctx, sp := trace.Start(ctx, "zfp.compress")
	defer sp.End()
	workers := cfg.WorkersFor(8 * int64(f.Len()))
	if c.mode == modeRate {
		out, err := c.compressRate(ctx, f, workers)
		if err != nil {
			sp.SetError(err)
			return nil, err
		}
		sp.SetBytes(int64(8*f.Len()), int64(len(out)))
		return out, nil
	}
	var w bitstream.Writer
	enc := func(bs []blockShape, w *bitstream.Writer) error { return c.encodeBlocks(f, bs, w) }
	if err := encodeShards(ctx, blocks(f.Dims), &w, workers, enc); err != nil {
		sp.SetError(err)
		return nil, err
	}
	body := w.Bytes()
	hdr := compress.EncodeDimsHeader(f.Dims)
	out := make([]byte, 0, len(hdr)+len(body)+16)
	out = append(out, hdr...)
	out = append(out, c.mode)
	if c.mode == modeAccuracy {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(c.tolerance))
	} else {
		out = append(out, byte(c.precision))
	}
	out = append(out, body...)
	sp.SetBytes(int64(8*f.Len()), int64(len(out)))
	return out, nil
}

// encodeShards cuts the block list into parallel.Shards(workers, len(bs))
// shards and encodes each with enc on the worker pool, under one
// zfp.shard_encode span per shard. Shard 0 writes straight into w; every
// other shard encodes into a private bitstream appended to w in shard
// order at bit granularity, which reproduces the one-shard stream exactly
// — block i's bits always land at the same offset.
func encodeShards(ctx context.Context, bs []blockShape, w *bitstream.Writer, workers int, enc func([]blockShape, *bitstream.Writer) error) error {
	shards := parallel.Shards(workers, len(bs))
	tail := make([]bitstream.Writer, max(shards-1, 0))
	errs := make([]error, shards)
	parallel.ForShard(workers, len(bs), func(s, lo, hi int) {
		sw := w
		if s > 0 {
			sw = &tail[s-1]
		}
		_, sp := trace.Start(ctx, "zfp.shard_encode")
		sp.AddItems(int64(hi - lo))
		errs[s] = enc(bs[lo:hi], sw)
		sp.SetError(errs[s])
		sp.End()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i := range tail {
		w.AppendWriter(&tail[i])
	}
	return nil
}

// encodeBlocks runs the serial three-step kernel over a slice of blocks.
func (c *Codec) encodeBlocks(f *grid.Field, bs []blockShape, w *bitstream.Writer) error {
	rank := f.Rank()
	size := 1 << (2 * uint(rank)) // 4, 16, or 64
	// Pre-size the bit buffer near the typical smooth-field stream size
	// (a few bits per value; the group coder terminates sparse planes
	// early). This only reserves capacity — a block that codes more still
	// grows the buffer normally — but it collapses most of the append-
	// doubling sequence into one allocation without over-reserving.
	w.Grow(len(bs) * size * 6)
	s := newBlockScratch(size)
	defer s.release()
	vals, blk, nb := s.vals, s.blk, s.nb
	perm := permFor(rank)

	// With observability on, the loop as a whole is timed once and one
	// block in encodeClockStride is timed stage by stage; stageClock.split
	// divides the loop's time among the stages by those samples. Until a
	// non-empty block has been timed, every block is, so each stage that
	// sees work gets a sample. Counts and planes-per-block tallies are
	// exact, kept locally and flushed once per shard.
	rec := obs.Enabled()
	var (
		nBlocks, nEmpty int64
		planes          [MaxPrecision + 1]int64
		clk             stageClock
		timed           bool
		loop, t0        time.Time
	)
	if rec {
		loop = time.Now()
	}

	for i, b := range bs {
		if invariant.Enabled {
			// Block-grid invariant: every (possibly partial) block keeps
			// between 1 and 4 valid samples per dimension.
			for d := 0; d < 3; d++ {
				invariant.InRange(b.size[d], 1, 5, "zfp: block extent")
				invariant.Assert(b.origin[d] >= 0, "zfp: negative block origin %d", b.origin[d])
			}
		}
		if rec {
			nBlocks++
			if timed = i%encodeClockStride == 0 || clk.n[1] == 0; timed {
				t0 = time.Now()
			}
		}
		gather(f, b, vals)

		// Step 1: common-exponent alignment. The NaN/Inf guard and the
		// max-magnitude scan fuse into one branch-free pass over the raw
		// bits: for finite values, magnitude order equals unsigned order of
		// the sign-cleared IEEE-754 bits, and every NaN/Inf pattern compares
		// above all of them.
		maxBits := uint64(0)
		for _, v := range vals {
			if u := math.Float64bits(v) &^ (1 << 63); u > maxBits {
				maxBits = u
			}
		}
		if maxBits >= 0x7ff0000000000000 {
			return errors.New("zfp: NaN/Inf not supported")
		}
		maxAbs := math.Float64frombits(maxBits)
		if maxAbs == 0 {
			w.WriteBit(0) // empty block
			if rec {
				nEmpty++
				if timed {
					clk.lap(0, &t0)
				}
			}
			continue
		}
		_, emax := math.Frexp(maxAbs) // maxAbs = f * 2^emax, f in [0.5, 1)
		if invariant.Enabled {
			// Align boundary: the biased exponent must fit its 15-bit
			// header field or the stream silently wraps.
			invariant.InRange(emax+16384, 0, 1<<15, "zfp: biased block exponent")
		}
		// Non-empty marker and the 15-bit biased exponent in one write —
		// the same 16 bits the separate WriteBit(1)+WriteBits pair emitted.
		w.WriteBits(1<<15|uint64(emax+16384), 16)

		scale := math.Ldexp(1, fixedPointBits-emax)
		for i, v := range vals {
			blk[i] = int64(v * scale)
		}
		if timed {
			clk.lap(0, &t0)
		}

		// Step 2: decorrelating transform, then reorder coefficients by
		// total sequency so significant bits cluster at low indices.
		transformForward(blk, rank)
		for i := range blk {
			// perm is a permutation of [0,64): &63 is a no-op on the value
			// that stands in for the unprovable bounds check.
			nb[i] = int2nb(blk[perm[i]&63])
		}
		if timed {
			clk.lap(1, &t0)
		}

		// Step 3: embedded bit-plane coding down to the mode's floor plane.
		kmin := kminFor(c.mode, c.precision, c.tolerance, emax)
		if invariant.Enabled {
			invariant.InRange(kmin, intprec-MaxPrecision, intprec+1, "zfp: floor plane")
			if c.mode == modeAccuracy {
				// Transform→bitplane boundary: rebuilding the block exactly
				// as the decoder will (planes ≥ kmin only) must honour the
				// configured absolute tolerance.
				assertAccuracyBound(nb, vals, rank, emax, kmin, c.tolerance)
			}
		}
		encodePlanes(w, nb, size, kmin)
		if rec {
			if timed {
				clk.lap(2, &t0)
			}
			planes[intprec-kmin]++
		}
	}
	if rec {
		items := [3]int64{nBlocks, nBlocks - nEmpty, nBlocks - nEmpty}
		ns := clk.split(time.Since(loop).Nanoseconds(), items)
		obs.StageAdd("zfp.align", ns[0], items[0])
		obs.StageAdd("zfp.transform", ns[1], items[1])
		obs.StageAdd("zfp.plane_code", ns[2], items[2])
		obsBlocks.Add(nBlocks)
		obsEmptyBlocks.Add(nEmpty)
		for p, n := range planes {
			if n != 0 {
				obsPlanesHist.ObserveN(int64(p), n)
			}
		}
	}
	return nil
}

// encodeClockStride is the encode loop's clock sampling stride: reading
// the clock around every stage of every block cost about as much as the
// metrics-on step of a small field's whole encode.
const encodeClockStride = 16

// stageClock holds per-stage timings of the sampled blocks of one encode
// loop: ns[i] over n[i] samples for stages align, transform, plane_code.
type stageClock struct{ ns, n [3]int64 }

// lap charges the time since *t0 to stage i and restarts *t0.
func (c *stageClock) lap(i int, t0 *time.Time) {
	now := time.Now()
	c.ns[i] += now.Sub(*t0).Nanoseconds()
	c.n[i]++
	*t0 = now
}

// split divides total, the loop's measured time, among the stages in
// proportion to each stage's sampled mean times its item count. A clock
// too coarse to see any sample falls back to a split by item counts.
func (c *stageClock) split(total int64, items [3]int64) (ns [3]int64) {
	var est [3]float64
	sum := 0.0
	for i := range est {
		if c.n[i] > 0 {
			est[i] = float64(c.ns[i]) / float64(c.n[i]) * float64(items[i])
		}
		sum += est[i]
	}
	if sum <= 0 {
		sum = 0
		for i := range est {
			est[i] = float64(items[i])
			sum += est[i]
		}
	}
	if sum <= 0 {
		return ns
	}
	for i := range ns {
		ns[i] = int64(float64(total) * est[i] / sum)
	}
	return ns
}

// encodePlanes codes planes intprec-1 down to kmin of the negabinary
// coefficients. Full 64-coefficient blocks take the transpose fast path;
// smaller blocks extract each plane with the scalar loop.
//
// nb is CONSUMED: the full-block path transposes it in place, so its
// contents are unspecified after the call. Callers treat it as per-block
// scratch that is fully rewritten before reuse.
func encodePlanes(w *bitstream.Writer, nb []uint64, size, kmin int) {
	n := 0
	if size == 64 {
		// Straight copy: the anti-transpose of unreversed words yields each
		// plane BIT-REVERSED — planes[63-k] bit 63-i == nb[i] bit k. That
		// orientation is the cheap one for the coder: the verbatim prefix
		// (low n coefficient bits, LSB first) is exactly the word's top n
		// bits, and the set-bit scan becomes LeadingZeros64 — no per-plane
		// bits.Reverse64 anywhere (x86 has no bit-reverse instruction).
		// Only planes kmin and above are ever read (words [0, intprec-kmin)),
		// so the butterfly is cut to that output prefix. The transpose runs
		// destructively in nb's own backing array — nb is per-block scratch
		// that the caller fully rewrites before the next use, and skipping
		// the 512-byte staging copy removes a memmove per block.
		planes := (*[64]uint64)(nb)
		transposeTop(planes, intprec-kmin)
		// All planes run through one persistent accumulator: prefixes,
		// group tests, runs, and terminators append to acc and spill only
		// at 64-bit boundaries. The Writer sees the exact bit sequence the
		// per-plane encodePlane calls would produce — only call and flush
		// granularity changes, so the stream is identical while the per-
		// plane function call and flush overhead (3 WriteBits per plane)
		// disappears. Shift counts of 64 are safe throughout: Go defines
		// over-wide shifts as zero, and every such site has acc == 0 after
		// the preceding flush.
		var acc uint64
		var cnt uint
		k := intprec - 1
		// Leading all-zero planes (no value significant yet) each emit a
		// single failed group test; batch those zero bits in one step.
		for k >= kmin && planes[63-k] == 0 {
			k--
		}
		if z := uint(intprec - 1 - k); z > 0 {
			// z <= MaxPrecision zero bits fit the empty accumulator.
			acc <<= z
			cnt += z
		}
		for ; k >= kmin; k-- {
			y := planes[63-k] // bit 63-i = plane bit of value i
			if n > 0 {
				// Verbatim prefix: the top n bits of y.
				pn := uint(n)
				if cnt+pn > 64 {
					w.WriteBits(acc, cnt)
					acc, cnt = 0, 0
				}
				acc = acc<<pn | y>>(64-pn)
				cnt += pn
				y <<= pn
			}
			for n < size {
				if y == 0 {
					// Group test fails: a single 0 ends the plane.
					if cnt == 64 {
						w.WriteBits(acc, 64)
						acc, cnt = 0, 0
					}
					acc <<= 1
					cnt++
					break
				}
				lz := bits.LeadingZeros64(y)
				var v uint64
				var g uint
				if lz >= size-1-n {
					// Set bit at the final position: terminator implicit.
					g = uint(size - n)
					v = 1 << (g - 1)
					n = size
				} else {
					// Test bit, lz zeros, terminating 1 — one batch.
					g = uint(lz) + 2
					v = 1<<(g-1) | 1
					y <<= uint(lz + 1)
					n += lz + 1
				}
				if cnt+g > 64 {
					w.WriteBits(acc, cnt)
					acc, cnt = 0, 0
				}
				acc = acc<<g | v
				cnt += g
			}
		}
		if cnt > 0 {
			w.WriteBits(acc, cnt)
		}
		return
	}
	for k := intprec - 1; k >= kmin; k-- {
		var plane uint64
		for i := 0; i < size; i++ {
			plane |= (nb[i] >> uint(k) & 1) << uint(i)
		}
		n = encodePlane(w, plane, size, n)
	}
}

// decodePlanes parses the planes encodePlanes wrote for one block into nb
// (fully overwritten). A full block (size 64) is left as raw bit planes in
// the encoder's orientation — plane k in word 63-k with bit 63-i the plane
// bit of coefficient i, words from intprec-kmin on zero — so this
// bit-serial step does no transpose: transposeLow(nb, intprec-kmin) then
// leaves coefficient i in word i, and the decoder runs it on the worker
// that reconstructs the block. Smaller blocks decode straight to
// coefficients.
func decodePlanes(r *bitstream.Reader, nb []uint64, size, kmin int) error {
	if size == 64 {
		return decodePlanes64((*[64]uint64)(nb), r, intprec-kmin)
	}
	n := 0
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

// decodePlanes64 is decodePlane's loop for the top `rows` planes of a full
// block, fused and in the encoder's reversed orientation: the verbatim
// prefix is the top n bits of the window (no ReadBits byte loop, no
// bits.Reverse64), and a run ending at value v sets bit 63-v. One Peek64
// window serves every step whose bits it holds — its first avail bits are
// the stream's next bits, the rest are zero — and a step the window cannot
// decide re-peeks, so a step sees exactly the bits decodePlane's own peek
// would. The error outcomes and the bits consumed are decodePlane's: a
// short prefix leaves the reader at the end of the stream, as ReadBits
// does, and a group that runs past the end consumes nothing.
func decodePlanes64(planes *[64]uint64, r *bitstream.Reader, rows int) error {
	var win uint64
	avail := 0
	n := 0
	for w := 0; w < rows; w++ {
		var y uint64
		if n > 0 {
			if rem := r.Remaining(); rem < n {
				r.Advance(rem)
				return bitstream.ErrOutOfBits
			}
			if avail < n {
				win, avail = r.Peek64(), 64
			}
			y = win &^ (^uint64(0) >> uint(n))
			win <<= uint(n)
			avail -= n
			r.Advance(n)
		}
		for n < 64 {
			rem := r.Remaining()
			if rem == 0 {
				return bitstream.ErrOutOfBits
			}
			if avail == 0 {
				win, avail = r.Peek64(), 64
			}
			if win>>63 == 0 {
				// Group test fails: the plane holds no further set bits.
				win <<= 1
				avail--
				r.Advance(1)
				break
			}
			lim := 63 - n
			z := bits.LeadingZeros64(win << 1) // zeros after the test bit
			if z+2 > avail && lim+1 > avail {
				// The run leaves the window before it decides.
				win, avail = r.Peek64(), 64
				z = bits.LeadingZeros64(win << 1)
			}
			var c int
			if z >= lim {
				// The run reaches value 63; its terminating 1 is implicit.
				c = 1 + lim
				y |= 1
				n = 64
			} else {
				c = z + 2
				y |= 1 << uint(63-n-z)
				n += z + 1
			}
			if rem < c {
				return bitstream.ErrOutOfBits
			}
			win <<= uint(c)
			avail -= c
			r.Advance(c)
		}
		planes[w] = y
	}
	for w := max(rows, 0); w < 64; w++ {
		planes[w] = 0
	}
	return nil
}

// assertAccuracyBound reconstructs one block exactly as the decoder will —
// negabinary planes at or above kmin, inverse permutation, inverse
// transform, rescale — and asserts every sample lands within tol of the
// gathered originals. Only compiled in with -tags invariants.
func assertAccuracyBound(nb []uint64, vals []float64, rank, emax, kmin int, tol float64) {
	size := len(nb)
	blk := make([]int64, size)
	perm := permFor(rank)
	mask := ^uint64(0) << uint(kmin) // kmin == 64 shifts to an all-drop mask
	for i, u := range nb {
		blk[perm[i]] = nb2int(u & mask)
	}
	transformInverse(blk, rank)
	scale := math.Ldexp(1, emax-fixedPointBits)
	recon := make([]float64, size)
	for i, q := range blk {
		recon[i] = float64(q) * scale
	}
	invariant.ErrorBound(vals, recon, tol, "zfp: accuracy bitplane truncation")
}

// reconstructBlock turns parsed negabinary coefficients back into samples
// of f: inverse permutation, inverse transform, rescale, scatter.
func reconstructBlock(f *grid.Field, b blockShape, nb []uint64, emax, rank int, s *blockScratch) {
	perm := permFor(rank)
	for i, u := range nb {
		s.blk[perm[i]] = nb2int(u)
	}
	transformInverse(s.blk, rank)
	scale := math.Ldexp(1, emax-fixedPointBits)
	for i, q := range s.blk {
		s.vals[i] = float64(q) * scale
	}
	scatter(f, b, s.vals)
}

// emptyEmax is parseBlock's exponent for an all-zero block; it cannot
// collide with a real biased exponent.
const emptyEmax = math.MinInt32

// decodeGroup is the decoder's unit of hand-off from parse to
// reconstruction: the one-worker schedule parses a group and then
// reconstructs it, and the parallel schedule passes parsed groups to its
// workers. It is large enough to read the clock per group rather than per
// block, and small enough that a group's words (32 KiB for 3-D blocks)
// stay in cache.
const decodeGroup = 64

// Decompress implements compress.Codec. Failures wrap the
// compress.ErrTruncated / compress.ErrCorrupt taxonomy.
func (c *Codec) Decompress(ctx context.Context, data []byte, cfg parallel.Config) (*grid.Field, error) {
	ctx, sp := trace.Start(ctx, "zfp.decompress")
	defer sp.End()
	f, err := c.decompress(ctx, data, cfg)
	if err != nil {
		err = compress.Classify(err)
		sp.SetError(err)
		return nil, err
	}
	sp.SetBytes(int64(len(data)), int64(8*f.Len()))
	return f, nil
}

// decompress decodes with the stream's own mode and bound, whatever c's.
func (c *Codec) decompress(ctx context.Context, data []byte, cfg parallel.Config) (*grid.Field, error) {
	dims, rest, err := compress.DecodeDimsHeader(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("zfp: truncated stream: %w", compress.ErrTruncated)
	}
	stream := &Codec{mode: rest[0]}
	switch stream.mode {
	case modePrecision:
		stream.precision = uint(rest[1])
		if stream.precision < 1 || stream.precision > MaxPrecision {
			return nil, fmt.Errorf("zfp: invalid precision %d in stream: %w", stream.precision, compress.ErrHeader)
		}
		rest = rest[2:]
	case modeAccuracy:
		if len(rest) < 9 {
			return nil, fmt.Errorf("zfp: truncated tolerance: %w", compress.ErrTruncated)
		}
		stream.tolerance = math.Float64frombits(binary.LittleEndian.Uint64(rest[1:9]))
		if tol := stream.tolerance; tol <= 0 || math.IsNaN(tol) || math.IsInf(tol, 0) {
			return nil, fmt.Errorf("zfp: invalid tolerance %v in stream: %w", tol, compress.ErrHeader)
		}
		rest = rest[9:]
	case modeRate:
		n := int64(1)
		for _, d := range dims {
			n *= int64(d)
		}
		return decompressRate(ctx, dims, rest[1:], cfg.WorkersFor(8*n))
	default:
		return nil, fmt.Errorf("zfp: unknown mode %d in stream: %w", stream.mode, compress.ErrHeader)
	}
	r := bitstream.NewReader(rest)

	// Every block costs at least one bit, so the claimed dims cannot imply
	// more blocks than the payload has bits.
	if nb := blockCount(dims); nb > 8*len(rest) {
		return nil, fmt.Errorf("zfp: %d blocks exceed payload capacity: %w", nb, compress.ErrCorrupt)
	}
	f, err := compress.NewCheckedField("zfp: field", dims)
	if err != nil {
		return nil, err
	}
	rank := f.Rank()
	size := 1 << (2 * uint(rank))
	bs := blocks(dims)
	workers := cfg.WorkersFor(8 * int64(f.Len()))
	if workers > 1 {
		// The parallel schedule buffers every parsed block's coefficients
		// at once; degenerate shapes (many mostly-padding blocks) can make
		// that buffer exceed the decode cap even when the field itself
		// fits, so fall back to the per-group scratch rather than failing.
		nbElems := uint64(len(bs)) * uint64(size)
		if compress.CheckedAlloc("zfp: parsed blocks", nbElems, nbElems, 8) == nil {
			return stream.decompressParallel(ctx, f, bs, r, rank, size, workers)
		}
	}
	if err := stream.decodeSerial(ctx, f, bs, r, rank, size); err != nil {
		return nil, err
	}
	return f, nil
}

// parseBlock reads block b's nonempty flag, biased exponent and bit planes
// from the stream into nb (see decodePlanes) and returns the block
// exponent, or emptyEmax for an all-zero block, which codes no planes.
// Block boundaries are only discovered by parsing, so this step is
// bit-serial on both schedules. The flag and the exponent come from one
// Peek64; a stream that ends inside the exponent leaves the reader at its
// end, as ReadBits does.
func (c *Codec) parseBlock(r *bitstream.Reader, b blockShape, nb []uint64, size int) (int, error) {
	if invariant.Enabled {
		for d := 0; d < 3; d++ {
			invariant.InRange(b.size[d], 1, 5, "zfp: decode block extent")
		}
	}
	rem := r.Remaining()
	if rem == 0 {
		return 0, fmt.Errorf("zfp: truncated stream: %w", bitstream.ErrOutOfBits)
	}
	win := r.Peek64()
	if win>>63 == 0 {
		r.Advance(1)
		return emptyEmax, nil
	}
	if rem < 16 {
		r.Advance(rem)
		return 0, fmt.Errorf("zfp: truncated exponent: %w", bitstream.ErrOutOfBits)
	}
	r.Advance(16)
	emax := int(win>>48&0x7fff) - 16384
	if err := decodePlanes(r, nb, size, c.kmin(emax)); err != nil {
		return 0, fmt.Errorf("zfp: truncated plane: %w", err)
	}
	return emax, nil
}

// kmin is kminFor with the codec's own mode and bound.
func (c *Codec) kmin(emax int) int { return kminFor(c.mode, c.precision, c.tolerance, emax) }

// parseBlocks parses blocks bs in stream order into nb (size words each)
// and their exponents into emaxs, and returns how many are non-empty.
func (c *Codec) parseBlocks(r *bitstream.Reader, bs []blockShape, nb []uint64, emaxs []int, size int) (int64, error) {
	var n int64
	for i, b := range bs {
		emax, err := c.parseBlock(r, b, nb[i*size:(i+1)*size], size)
		if err != nil {
			return 0, err
		}
		emaxs[i] = emax
		if emax != emptyEmax {
			n++
		}
	}
	return n, nil
}

// reconstructBlocks writes the parsed blocks bs into f and returns how
// many are non-empty. A full block's raw planes are transposed here, on the
// worker that reconstructs it, with kmin recomputed from its exponent.
func (c *Codec) reconstructBlocks(f *grid.Field, bs []blockShape, nb []uint64, emaxs []int, rank, size int, s *blockScratch) int64 {
	var n int64
	for i, b := range bs {
		emax := emaxs[i]
		if emax == emptyEmax {
			for j := range s.vals {
				s.vals[j] = 0
			}
			scatter(f, b, s.vals)
			continue
		}
		blk := nb[i*size : (i+1)*size]
		if size == 64 {
			transposeLow((*[64]uint64)(blk), intprec-c.kmin(emax))
		}
		reconstructBlock(f, b, blk, emax, rank, s)
		n++
	}
	return n
}

// decodeSerial is the one-worker schedule: it parses decodeGroup blocks,
// reconstructs them, and moves on, so it needs only one group of scratch.
// It runs under a single zfp.shard_decode span, mirroring the shard spans
// of the parallel schedule so traces expose the decode structure at any
// budget.
func (c *Codec) decodeSerial(ctx context.Context, f *grid.Field, bs []blockShape, r *bitstream.Reader, rank, size int) (err error) {
	_, sp := trace.Start(ctx, "zfp.shard_decode")
	defer sp.End()
	defer func() { sp.SetError(err) }()
	sp.AddItems(int64(len(bs)))

	s := newBlockScratch(size)
	defer s.release()
	nb, emaxs := parallel.Uint64s(decodeGroup*size), parallel.Ints(decodeGroup)
	defer parallel.PutUint64s(nb)
	defer parallel.PutInts(emaxs)
	rec := obs.Enabled()
	var planeNs, invNs, nBlocks int64
	var t0 time.Time
	if rec {
		t0 = time.Now()
	}
	for lo := 0; lo < len(bs); lo += decodeGroup {
		g := bs[lo:min(lo+decodeGroup, len(bs))]
		n, err := c.parseBlocks(r, g, nb, emaxs, size)
		if err != nil {
			return err
		}
		if rec {
			now := time.Now()
			planeNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
		c.reconstructBlocks(f, g, nb, emaxs, rank, size, s)
		if rec {
			now := time.Now()
			invNs += now.Sub(t0).Nanoseconds()
			t0 = now
			nBlocks += n
		}
	}
	if rec {
		obs.StageAdd("zfp.plane_decode", planeNs, nBlocks)
		obs.StageAdd("zfp.inv_transform", invNs, nBlocks)
	}
	return nil
}

// decompressParallel overlaps the bit-serial stream parse with the
// reconstruction. Shard 0 parses the blocks in groups of decodeGroup into
// a field-sized buffer of exponents and raw planes (or, below rank 3,
// coefficients) and hands each parsed group's index to the workers, then
// joins them; every worker, shard 0 included, runs the plane transposes,
// inverse transforms and scatters of the groups it takes. Scatter regions
// are disjoint by construction, so workers never write the same sample,
// and each block is reconstructed from the same parsed words on any
// schedule. There are as many shards as workers, so ForShard runs every
// shard on its own goroutine and the parse never waits behind a worker
// blocked on the channel.
func (c *Codec) decompressParallel(ctx context.Context, f *grid.Field, bs []blockShape, r *bitstream.Reader, rank, size, workers int) (*grid.Field, error) {
	nbAll := parallel.Uint64s(len(bs) * size)
	defer parallel.PutUint64s(nbAll)
	emaxs := parallel.Ints(len(bs))
	defer parallel.PutInts(emaxs)

	groups := (len(bs) + decodeGroup - 1) / decodeGroup
	parsed := make(chan int, groups) // never blocks the parse
	var parseErr error
	rec := obs.Enabled()
	parallel.ForShard(workers, workers, func(shard, _, _ int) {
		_, sp := trace.Start(ctx, "zfp.shard_decode")
		defer sp.End()
		if shard == 0 {
			parseErr = c.parseGroups(r, bs, nbAll, emaxs, size, parsed, rec)
			sp.SetError(parseErr)
			close(parsed)
		}
		s := newBlockScratch(size)
		defer s.release()
		var invNs, nBlocks, items int64
		for g := range parsed {
			lo, hi := g*decodeGroup, min((g+1)*decodeGroup, len(bs))
			var t0 time.Time
			if rec {
				t0 = time.Now()
			}
			nBlocks += c.reconstructBlocks(f, bs[lo:hi], nbAll[lo*size:hi*size], emaxs[lo:hi], rank, size, s)
			if rec {
				invNs += time.Since(t0).Nanoseconds()
			}
			items += int64(hi - lo)
		}
		sp.AddItems(items)
		if rec {
			obs.StageAdd("zfp.inv_transform", invNs, nBlocks)
		}
	})
	if parseErr != nil {
		return nil, parseErr
	}
	return f, nil
}

// parseGroups parses bs group by group into nb and emaxs, sending each
// finished group's index on parsed; it stops at the first error.
func (c *Codec) parseGroups(r *bitstream.Reader, bs []blockShape, nb []uint64, emaxs []int, size int, parsed chan<- int, rec bool) error {
	var t0 time.Time
	if rec {
		t0 = time.Now()
	}
	var nBlocks int64
	for g, lo := 0, 0; lo < len(bs); g, lo = g+1, lo+decodeGroup {
		hi := min(lo+decodeGroup, len(bs))
		n, err := c.parseBlocks(r, bs[lo:hi], nb[lo*size:hi*size], emaxs[lo:hi], size)
		if err != nil {
			return err
		}
		nBlocks += n
		parsed <- g
	}
	if rec {
		obs.StageAdd("zfp.plane_decode", time.Since(t0).Nanoseconds(), nBlocks)
	}
	return nil
}

func init() {
	compress.Register("zfp", MustNew(16).Decompress)
}
