package zfp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lrm/internal/bitstream"
	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// modeRate is the fixed-rate stream mode: every block costs exactly
// rate * 4^d bits, which makes the stream randomly accessible — the
// defining feature of real ZFP's -r mode (compressed arrays with O(1)
// element access). The fixed budget also makes rate mode the most
// parallel-friendly: block i starts at bit i*budget, so decode needs no
// serial parse stage at all.
const modeRate byte = 2

// NewRate returns a fixed-rate codec storing exactly `rate` bits per value.
// Compression ratio is then exactly 64/rate regardless of content; quality
// varies per block instead. Fixed-rate streams support random block access
// via DecodeAt.
func NewRate(rate int) (*Codec, error) {
	if rate < 1 || rate > 62 {
		return nil, fmt.Errorf("zfp: rate %d out of range [1,62]", rate)
	}
	return &Codec{mode: modeRate, rate: uint(rate)}, nil
}

// MustNewRate is NewRate but panics on invalid rate.
func MustNewRate(rate int) *Codec {
	c, err := NewRate(rate)
	if err != nil {
		panic(err)
	}
	return c
}

// Rate returns the configured bits per value (rate mode).
func (c *Codec) Rate() int { return int(c.rate) }

// encodePlaneBudget is encodePlane with a bit budget: encoding stops the
// moment the block's budget is exhausted, exactly mirroring ZFP's
// encode_ints. It returns the updated significant count and remaining
// budget.
func encodePlaneBudget(w *bitstream.Writer, x uint64, size, n, bits int) (int, int) {
	m := n
	if bits < m {
		m = bits
	}
	bits -= m
	if m > 0 {
		// Verbatim prefix, least significant bit first, in one write.
		w.WriteBits(mathbitsReverse(x, m), uint(m))
		x >>= uint(m)
	}
	for n < size && bits > 0 {
		bits--
		if x == 0 {
			w.WriteBit(0)
			break
		}
		w.WriteBit(1)
		for n < size-1 && bits > 0 {
			bits--
			bit := uint(x & 1)
			w.WriteBit(bit)
			if bit != 0 {
				break
			}
			x >>= 1
			n++
		}
		x >>= 1
		n++
	}
	return n, bits
}

// mathbitsReverse returns the low m bits of x in reversed order (bit 0
// becomes the most significant of the m-bit result), matching the emission
// order of a least-significant-first per-bit loop.
func mathbitsReverse(x uint64, m int) uint64 {
	var v uint64
	for i := 0; i < m; i++ {
		v = v<<1 | (x >> uint(i) & 1)
	}
	return v
}

// decodePlaneBudget mirrors encodePlaneBudget.
func decodePlaneBudget(r *bitstream.Reader, size, n, bits int) (uint64, int, int, error) {
	m := n
	if bits < m {
		m = bits
	}
	bits -= m
	var x uint64
	for i := 0; i < m; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, 0, err
		}
		x |= uint64(b) << uint(i)
	}
	for n < size && bits > 0 {
		bits--
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, 0, err
		}
		if b == 0 {
			break
		}
		for n < size-1 && bits > 0 {
			bits--
			bb, err := r.ReadBit()
			if err != nil {
				return 0, 0, 0, err
			}
			if bb != 0 {
				break
			}
			n++
		}
		x |= 1 << uint(n)
		n++
	}
	return x, n, bits, nil
}

// blockBudgetBits returns the exact bit cost of one block in rate mode.
func blockBudgetBits(rate uint, size int) int { return int(rate) * size }

// compressRate encodes the whole field at a fixed per-block budget,
// sharding the block list across the pool like the variable-rate encoder.
// Because every block costs exactly `budget` bits, shard boundaries land
// at deterministic offsets and concatenation reproduces the serial stream.
func (c *Codec) compressRate(ctx context.Context, f *grid.Field, workers int) ([]byte, error) {
	rank := f.Rank()
	size := 1 << (2 * uint(rank))
	budget := blockBudgetBits(c.rate, size)
	if budget < 16 {
		return nil, fmt.Errorf("zfp: rate %d leaves no room for the block exponent", c.rate)
	}

	bs := blocks(f.Dims)
	var w bitstream.Writer
	if workers <= 1 || len(bs) < minParallelBlocks {
		_, sp := trace.Start(ctx, "zfp.shard_encode")
		sp.AddItems(int64(len(bs)))
		err := c.encodeRateBlocks(f, bs, budget, &w)
		sp.SetError(err)
		sp.End()
		if err != nil {
			return nil, err
		}
	} else {
		shards := parallel.Shards(workers, len(bs))
		ws := make([]bitstream.Writer, shards)
		errs := make([]error, shards)
		parallel.ForShard(workers, len(bs), func(s, lo, hi int) {
			_, sp := trace.Start(ctx, "zfp.shard_encode")
			sp.AddItems(int64(hi - lo))
			errs[s] = c.encodeRateBlocks(f, bs[lo:hi], budget, &ws[s])
			sp.SetError(errs[s])
			sp.End()
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for i := range ws {
			w.AppendWriter(&ws[i])
		}
	}

	out := compress.EncodeDimsHeader(f.Dims)
	out = append(out, modeRate, byte(c.rate))
	return append(out, w.Bytes()...), nil
}

// encodeRateBlocks is the serial fixed-rate kernel over a slice of blocks.
func (c *Codec) encodeRateBlocks(f *grid.Field, bs []blockShape, budget int, w *bitstream.Writer) error {
	rank := f.Rank()
	size := 1 << (2 * uint(rank))
	s := newBlockScratch(size)
	defer s.release()
	vals, blk, nb := s.vals, s.blk, s.nb
	perm := permFor(rank)

	for _, b := range bs {
		gather(f, b, vals)
		// Fused NaN/Inf + max-magnitude scan over the raw bits, as in
		// encodeBlocks.
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
		start := w.Len()
		_, emax := math.Frexp(maxAbs)
		if maxAbs == 0 {
			emax = -16384 // forces all-zero planes below
		}
		w.WriteBits(uint64(emax+16384), 15)
		scale := 0.0
		if maxAbs != 0 {
			scale = math.Ldexp(1, fixedPointBits-emax)
		}
		for i, v := range vals {
			blk[i] = int64(v * scale)
		}
		transformForward(blk, rank)
		for i := range blk {
			nb[i] = int2nb(blk[perm[i]])
		}
		bits := budget - 15
		n := 0
		for k := intprec - 1; k >= intprec-MaxPrecision && bits > 0; k-- {
			var plane uint64
			for i := 0; i < size; i++ {
				plane |= (nb[i] >> uint(k) & 1) << uint(i)
			}
			n, bits = encodePlaneBudget(w, plane, size, n, bits)
		}
		// Pad to the exact block budget: the fixed size is what makes the
		// stream randomly accessible.
		if pad := start + budget - w.Len(); pad > 0 {
			for pad >= 64 {
				w.WriteBits(0, 64)
				pad -= 64
			}
			w.WriteBits(0, uint(pad))
		}
	}
	return nil
}

// decodeRateBlock decodes one fixed-budget block from r into s.vals. The
// scratch buffers are caller-owned so bulk decode allocates nothing per
// block.
func decodeRateBlock(r *bitstream.Reader, rate uint, rank int, s *blockScratch) error {
	size := 1 << (2 * uint(rank))
	budget := blockBudgetBits(rate, size)
	start := r.Pos()

	e, err := r.ReadBits(15)
	if err != nil {
		return fmt.Errorf("zfp: truncated rate block: %w", err)
	}
	emax := int(e) - 16384

	nb := s.nb
	for i := range nb {
		nb[i] = 0
	}
	bits := budget - 15
	n := 0
	for k := intprec - 1; k >= intprec-MaxPrecision && bits > 0; k-- {
		plane, n2, bits2, err := decodePlaneBudget(r, size, n, bits)
		if err != nil {
			return fmt.Errorf("zfp: truncated rate block: %w", err)
		}
		n, bits = n2, bits2
		for i := 0; i < size; i++ {
			nb[i] |= (plane >> uint(i) & 1) << uint(k)
		}
	}
	// Skip the padding up to the exact budget.
	if err := r.Seek(start + budget); err != nil {
		return fmt.Errorf("zfp: truncated rate padding: %w", err)
	}

	blk := s.blk
	perm := permFor(rank)
	for i, u := range nb {
		blk[perm[i]] = nb2int(u)
	}
	transformInverse(blk, rank)
	scale := math.Ldexp(1, emax-fixedPointBits)
	if emax == -16384 {
		scale = 0
	}
	for i, q := range blk {
		s.vals[i] = float64(q) * scale
	}
	return nil
}

// DecodeAt randomly accesses a fixed-rate stream: it decodes ONLY the block
// containing the given coordinates and returns the sample, without touching
// the rest of the stream — ZFP's compressed-array access pattern. The
// stream must have been produced in rate mode.
func (c *Codec) DecodeAt(data []byte, coord ...int) (float64, error) {
	dims, rest, err := compress.DecodeDimsHeader(data)
	if err != nil {
		return 0, err
	}
	if len(rest) < 2 {
		return 0, fmt.Errorf("zfp: truncated stream: %w", compress.ErrTruncated)
	}
	if rest[0] != modeRate {
		return 0, fmt.Errorf("zfp: DecodeAt requires a fixed-rate stream: %w", compress.ErrHeader)
	}
	rate := uint(rest[1])
	if rate < 1 || rate > 62 {
		return 0, fmt.Errorf("zfp: invalid rate %d in stream: %w", rate, compress.ErrHeader)
	}
	if len(coord) != len(dims) {
		//lrmlint:ignore errtaxonomy caller API misuse, not a stream failure
		return 0, fmt.Errorf("zfp: coordinate rank %d != field rank %d", len(coord), len(dims))
	}
	for i, x := range coord {
		if x < 0 || x >= dims[i] {
			//lrmlint:ignore errtaxonomy caller API misuse, not a stream failure
			return 0, fmt.Errorf("zfp: coordinate %d out of range [0,%d)", x, dims[i])
		}
	}
	rank := len(dims)
	size := 1 << (2 * uint(rank))
	budget := blockBudgetBits(rate, size)

	// Locate the block in raster order and the sample within it.
	var ny, nx int
	var cz, cy, cx int
	switch rank {
	case 1:
		ny, nx = 1, dims[0]
		cx = coord[0]
	case 2:
		ny, nx = dims[0], dims[1]
		cy, cx = coord[0], coord[1]
	default:
		ny, nx = dims[1], dims[2]
		cz, cy, cx = coord[0], coord[1], coord[2]
	}
	bz, by, bx := cz/4, cy/4, cx/4
	bnx := (nx + 3) / 4
	bny := (ny + 3) / 4
	blockIdx := (bz*bny+by)*bnx + bx

	payload := rest[2:]
	r := bitstream.NewReader(payload)
	offset := blockIdx * budget
	if offset+budget > 8*len(payload) {
		return 0, fmt.Errorf("zfp: stream too short for requested block: %w", compress.ErrTruncated)
	}
	// O(1) seek straight to the block: fixed-rate blocks all cost the
	// same number of bits.
	if err := r.Seek(offset); err != nil {
		return 0, err
	}
	s := newBlockScratch(size)
	defer s.release()
	if err := decodeRateBlock(r, rate, rank, s); err != nil {
		return 0, compress.Classify(err)
	}
	lz, ly, lx := cz%4, cy%4, cx%4
	yl, xl := 4, 4
	if rank < 2 {
		yl = 1
	}
	return s.vals[(lz*yl+ly)*xl+lx], nil
}

// decompressRate reverses compressRate. Fixed budgets mean block i begins
// at bit i*budget, so shards decode fully independently from their own
// seeked readers — no serial parse stage.
func decompressRate(ctx context.Context, dims []int, rest []byte, workers int) (*grid.Field, error) {
	if len(rest) < 1 {
		return nil, fmt.Errorf("zfp: truncated rate header: %w", compress.ErrTruncated)
	}
	rate := uint(rest[0])
	if rate < 1 || rate > 62 {
		return nil, fmt.Errorf("zfp: invalid rate %d in stream: %w", rate, compress.ErrHeader)
	}
	rank := len(dims)
	size := 1 << (2 * uint(rank))
	budget := blockBudgetBits(rate, size)
	payload := rest[1:]
	// Rate streams have a deterministic size: validate before allocating.
	if need := blockCount(dims) * budget; need > 8*len(payload) {
		return nil, fmt.Errorf("zfp: rate stream needs %d bits, payload has %d: %w",
			need, 8*len(payload), compress.ErrTruncated)
	}
	f, err := compress.NewCheckedField("zfp: rate field", dims)
	if err != nil {
		return nil, err
	}
	bs := blocks(dims)

	if workers <= 1 || len(bs) < minParallelBlocks {
		s := newBlockScratch(size)
		defer s.release()
		_, sp := trace.Start(ctx, "zfp.shard_decode")
		defer sp.End()
		sp.AddItems(int64(len(bs)))
		r := bitstream.NewReader(payload)
		for _, b := range bs {
			if err := decodeRateBlock(r, rate, rank, s); err != nil {
				sp.SetError(err)
				return nil, err
			}
			scatter(f, b, s.vals)
		}
		return f, nil
	}

	shards := parallel.Shards(workers, len(bs))
	errs := make([]error, shards)
	parallel.ForShard(workers, len(bs), func(sh, lo, hi int) {
		_, sp := trace.Start(ctx, "zfp.shard_decode")
		defer sp.End()
		sp.AddItems(int64(hi - lo))
		s := newBlockScratch(size)
		defer s.release()
		r := bitstream.NewReader(payload)
		if err := r.Seek(lo * budget); err != nil {
			sp.SetError(err)
			errs[sh] = err
			return
		}
		for bi := lo; bi < hi; bi++ {
			if err := decodeRateBlock(r, rate, rank, s); err != nil {
				sp.SetError(err)
				errs[sh] = err
				return
			}
			scatter(f, bs[bi], s.vals)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}
