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
// runs the inverse transform + scatter of already-parsed blocks in
// parallel. Workers == 1 reproduces the serial execution exactly.
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
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(blk, 4*y+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(blk, 16*z+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(blk, 16*z+4*y, 1)
			}
		}
	}
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

	rec := obs.Enabled()
	var alignNs, transformNs, planeNs, nBlocks, nEmpty int64
	var t0 time.Time

	for _, b := range bs {
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
			t0 = time.Now()
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
				alignNs += time.Since(t0).Nanoseconds()
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
		if rec {
			now := time.Now()
			alignNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}

		// Step 2: decorrelating transform, then reorder coefficients by
		// total sequency so significant bits cluster at low indices.
		transformForward(blk, rank)
		for i := range blk {
			// perm is a permutation of [0,64): &63 is a no-op on the value
			// that stands in for the unprovable bounds check.
			nb[i] = int2nb(blk[perm[i]&63])
		}
		if rec {
			now := time.Now()
			transformNs += now.Sub(t0).Nanoseconds()
			t0 = now
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
			planeNs += time.Since(t0).Nanoseconds()
			obsPlanesHist.Observe(int64(intprec - kmin))
		}
	}
	if rec {
		obs.StageAdd("zfp.align", alignNs, nBlocks)
		obs.StageAdd("zfp.transform", transformNs, nBlocks-nEmpty)
		obs.StageAdd("zfp.plane_code", planeNs, nBlocks-nEmpty)
		obsBlocks.Add(nBlocks)
		obsEmptyBlocks.Add(nEmpty)
	}
	return nil
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

// decodePlanes reverses encodePlanes into nb (fully overwritten).
func decodePlanes(r *bitstream.Reader, nb []uint64, size, kmin int) error {
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

func (c *Codec) decompress(ctx context.Context, data []byte, cfg parallel.Config) (*grid.Field, error) {
	dims, rest, err := compress.DecodeDimsHeader(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("zfp: truncated stream: %w", compress.ErrTruncated)
	}
	mode := rest[0]
	var precision uint
	var tolerance float64
	switch mode {
	case modePrecision:
		precision = uint(rest[1])
		if precision < 1 || precision > MaxPrecision {
			return nil, fmt.Errorf("zfp: invalid precision %d in stream: %w", precision, compress.ErrHeader)
		}
		rest = rest[2:]
	case modeAccuracy:
		if len(rest) < 9 {
			return nil, fmt.Errorf("zfp: truncated tolerance: %w", compress.ErrTruncated)
		}
		tolerance = math.Float64frombits(binary.LittleEndian.Uint64(rest[1:9]))
		if tolerance <= 0 || math.IsNaN(tolerance) || math.IsInf(tolerance, 0) {
			return nil, fmt.Errorf("zfp: invalid tolerance %v in stream: %w", tolerance, compress.ErrHeader)
		}
		rest = rest[9:]
	case modeRate:
		n := int64(1)
		for _, d := range dims {
			n *= int64(d)
		}
		return decompressRate(ctx, dims, rest[1:], cfg.WorkersFor(8*n))
	default:
		return nil, fmt.Errorf("zfp: unknown mode %d in stream: %w", mode, compress.ErrHeader)
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
		// fits, so fall back to the per-block scratch rather than failing.
		nbElems := uint64(len(bs)) * uint64(size)
		if compress.CheckedAlloc("zfp: parsed blocks", nbElems, nbElems, 8) == nil {
			return c.decompressParallel(ctx, f, bs, r, mode, precision, tolerance, rank, size, workers)
		}
	}
	if err := c.decodeSerial(ctx, f, bs, r, mode, precision, tolerance, rank, size); err != nil {
		return nil, err
	}
	return f, nil
}

// parseBlock reads block b's nonempty flag, biased exponent and bit planes
// from the stream into nb and returns the block exponent, or emptyEmax for
// an all-zero block, which codes no planes. Block boundaries are only
// discovered by parsing, so this step is bit-serial on both schedules.
func parseBlock(r *bitstream.Reader, b blockShape, nb []uint64, size int, mode byte, precision uint, tolerance float64) (int, error) {
	if invariant.Enabled {
		for d := 0; d < 3; d++ {
			invariant.InRange(b.size[d], 1, 5, "zfp: decode block extent")
		}
	}
	nonEmpty, err := r.ReadBit()
	if err != nil {
		return 0, fmt.Errorf("zfp: truncated stream: %w", err)
	}
	if nonEmpty == 0 {
		return emptyEmax, nil
	}
	e, err := r.ReadBits(15)
	if err != nil {
		return 0, fmt.Errorf("zfp: truncated exponent: %w", err)
	}
	emax := int(e) - 16384
	if err := decodePlanes(r, nb, size, kminFor(mode, precision, tolerance, emax)); err != nil {
		return 0, fmt.Errorf("zfp: truncated plane: %w", err)
	}
	return emax, nil
}

// decodeSerial is the one-worker schedule: it interleaves parse and
// reconstruct per block, so it needs only one block of scratch. It runs
// under a single zfp.shard_decode span, mirroring the shard spans of the
// parallel schedule so traces expose the decode structure at any budget.
func (c *Codec) decodeSerial(ctx context.Context, f *grid.Field, bs []blockShape, r *bitstream.Reader, mode byte, precision uint, tolerance float64, rank, size int) (err error) {
	_, sp := trace.Start(ctx, "zfp.shard_decode")
	defer sp.End()
	defer func() { sp.SetError(err) }()
	sp.AddItems(int64(len(bs)))

	s := newBlockScratch(size)
	defer s.release()
	rec := obs.Enabled()
	var planeNs, invNs, nBlocks int64
	var t0 time.Time
	for _, b := range bs {
		if rec {
			t0 = time.Now()
		}
		emax, err := parseBlock(r, b, s.nb, size, mode, precision, tolerance)
		if err != nil {
			return err
		}
		if emax == emptyEmax {
			for i := range s.vals {
				s.vals[i] = 0
			}
			scatter(f, b, s.vals)
			continue
		}
		if rec {
			now := time.Now()
			nBlocks++
			planeNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
		reconstructBlock(f, b, s.nb, emax, rank, s)
		if rec {
			invNs += time.Since(t0).Nanoseconds()
		}
	}
	if rec {
		obs.StageAdd("zfp.plane_decode", planeNs, nBlocks)
		obs.StageAdd("zfp.inv_transform", invNs, nBlocks)
	}
	return nil
}

// decompressParallel splits decoding in two stages: the bit-serial stream
// parse collects every block's exponent and negabinary coefficients into a
// field-sized buffer, then the pool runs the independent inverse
// transforms and scatters. Scatter regions are disjoint by construction,
// so workers never write the same sample.
func (c *Codec) decompressParallel(ctx context.Context, f *grid.Field, bs []blockShape, r *bitstream.Reader, mode byte, precision uint, tolerance float64, rank, size, workers int) (*grid.Field, error) {
	nbAll := parallel.Uint64s(len(bs) * size)
	defer parallel.PutUint64s(nbAll)
	emaxs := parallel.Ints(len(bs))
	defer parallel.PutInts(emaxs)

	rec := obs.Enabled()
	var planeNs, nBlocks int64
	var t0 time.Time
	for bi, b := range bs {
		if rec {
			t0 = time.Now()
		}
		emax, err := parseBlock(r, b, nbAll[bi*size:(bi+1)*size], size, mode, precision, tolerance)
		if err != nil {
			return nil, err
		}
		emaxs[bi] = emax
		if rec && emax != emptyEmax {
			nBlocks++
			planeNs += time.Since(t0).Nanoseconds()
		}
	}
	if rec {
		obs.StageAdd("zfp.plane_decode", planeNs, nBlocks)
	}

	parallel.ForShard(workers, len(bs), func(_, lo, hi int) {
		_, sp := trace.Start(ctx, "zfp.shard_decode")
		defer sp.End()
		sp.AddItems(int64(hi - lo))
		s := newBlockScratch(size)
		defer s.release()
		var invNs, n int64
		var st time.Time
		for bi := lo; bi < hi; bi++ {
			if emaxs[bi] == emptyEmax {
				for i := range s.vals {
					s.vals[i] = 0
				}
				scatter(f, bs[bi], s.vals)
				continue
			}
			if rec {
				n++
				st = time.Now()
			}
			reconstructBlock(f, bs[bi], nbAll[bi*size:(bi+1)*size], emaxs[bi], rank, s)
			if rec {
				invNs += time.Since(st).Nanoseconds()
			}
		}
		if rec {
			obs.StageAdd("zfp.inv_transform", invNs, n)
		}
	})
	return f, nil
}

func init() {
	compress.Register("zfp", MustNew(16).Decompress)
}
