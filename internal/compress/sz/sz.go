// Package sz implements an error-bounded predictive compressor modeled on
// SZ 1.4 (Di & Cappello, IPDPS 2016; Tao et al., IPDPS 2017), the second
// lossy compressor the paper evaluates.
//
// The pipeline follows the four steps the paper lists (Section II-A):
//
//  1. Predict each point from its already-decoded neighbours with a Lorenzo
//     (multidimensional polynomial) predictor.
//  2. On a prediction hit, encode the point as a linear-scaling quantization
//     code (an m-bit integer bin of the prediction error).
//  3. On a miss, fall back to storing the value's binary representation.
//  4. Entropy-code the quantization codes with Huffman and squeeze the
//     remaining redundancy with a flate (LZ77-family) pass.
//
// Three error-bound modes are supported, matching the SZ configuration
// surface the paper exercises: absolute, value-range-relative, and
// point-wise relative (implemented, like SZ 2.x, with a logarithmic
// pre-transform so the absolute machinery can bound relative error).
package sz

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/invariant"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// Hoisted observability metrics: pointer lookups stay off the hot path, and
// recording is gated per call site on the span (nil when obs is disabled).
var (
	obsBinHits       = obs.GetCounter("sz.bin_hits")
	obsUnpredictable = obs.GetCounter("sz.unpredictable")
)

// Mode selects how the error bound is interpreted.
type Mode uint8

const (
	// Abs bounds |original - decompressed| <= Bound pointwise.
	Abs Mode = iota
	// ValueRangeRel bounds the absolute error by Bound * (max - min).
	ValueRangeRel
	// PointwiseRel bounds |original - decompressed| <= Bound * |original|
	// for every point (zeros are preserved exactly).
	PointwiseRel
)

func (m Mode) String() string {
	switch m {
	case Abs:
		return "abs"
	case ValueRangeRel:
		return "rel"
	case PointwiseRel:
		return "pwrel"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// quantization radius: 2^15 bins on each side of the prediction, i.e. SZ's
// default 16-bit (65536-bin) linear-scaling quantization.
const radius = 1 << 15

// unpredictable is the quantization code reserved for prediction misses.
const unpredictable = 2 * radius

// flagCurveFit marks streams encoded with adaptive curve-fitting prediction.
const flagCurveFit byte = 1

// Codec is an SZ-style error-bounded compressor.
type Codec struct {
	mode     Mode
	bound    float64
	curveFit bool
}

// New returns a codec with the given mode and error bound.
func New(mode Mode, bound float64) (*Codec, error) {
	if bound <= 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return nil, fmt.Errorf("sz: invalid error bound %v", bound)
	}
	if mode > PointwiseRel {
		return nil, fmt.Errorf("sz: unknown mode %d", mode)
	}
	return &Codec{mode: mode, bound: bound}, nil
}

// MustNew is New but panics on invalid arguments; for use in tables.
func MustNew(mode Mode, bound float64) *Codec {
	c, err := New(mode, bound)
	if err != nil {
		panic(err)
	}
	return c
}

// NewCurveFit returns a codec with SZ 1.4's adaptive curve-fitting
// prediction for 1-D data: at each point the preceding-neighbour, linear,
// and quadratic extrapolations compete, and the one that best predicted the
// previous point (a hindsight rule the decoder can replay without side
// information) is used. Multi-dimensional data keeps the Lorenzo predictor.
func NewCurveFit(mode Mode, bound float64) (*Codec, error) {
	c, err := New(mode, bound)
	if err != nil {
		return nil, err
	}
	c.curveFit = true
	return c, nil
}

// MustNewCurveFit is NewCurveFit but panics on invalid arguments.
func MustNewCurveFit(mode Mode, bound float64) *Codec {
	c, err := NewCurveFit(mode, bound)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements compress.Codec.
func (c *Codec) Name() string {
	if c.curveFit {
		return fmt.Sprintf("sz(%s=%.0e,cf)", c.mode, c.bound)
	}
	return fmt.Sprintf("sz(%s=%.0e)", c.mode, c.bound)
}

// Lossless implements compress.Codec.
func (c *Codec) Lossless() bool { return false }

// Mode returns the configured error-bound mode.
func (c *Codec) Mode() Mode { return c.mode }

// Bound returns the configured error bound.
func (c *Codec) Bound() float64 { return c.bound }

// effectiveBound resolves the absolute quantization bound for f: the
// configured bound in Abs mode, bound × (max − min) in value-range mode.
func (c *Codec) effectiveBound(f *grid.Field) float64 {
	eb := c.bound
	if c.mode == ValueRangeRel {
		lo, hi := f.MinMax()
		eb = c.bound * (hi - lo)
		if eb == 0 { // constant field: any tiny bound works
			eb = math.SmallestNonzeroFloat64 * 1e10
		}
	}
	return eb
}

// AbsErrorBound implements compress.ErrorBounded. Pointwise-relative mode
// has no single absolute bound, so it reports ok == false.
func (c *Codec) AbsErrorBound(f *grid.Field) (float64, bool) {
	if c.mode == PointwiseRel {
		return 0, false
	}
	return c.effectiveBound(f), true
}

// hasNaNOrInf scans for unsupported values, one pool shard per worker.
// The answer is a pure predicate, so scan order is free.
func hasNaNOrInf(data []float64, workers int) bool {
	var found atomic.Bool
	parallel.ForShard(workers, len(data), func(_, lo, hi int) {
		for _, v := range data[lo:hi] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				found.Store(true)
				return
			}
		}
	})
	return found.Load()
}

// lorenzoPredict predicts point i of data given dims, using only indices
// < i (already decoded). Out-of-range neighbours contribute zero, as in SZ.
func lorenzoPredict(d []float64, dims []int, idx int) float64 {
	switch len(dims) {
	case 1:
		if idx == 0 {
			return 0
		}
		return d[idx-1]
	case 2:
		nx := dims[1]
		i := idx % nx
		j := idx / nx
		var a, b, ab float64
		if i > 0 {
			a = d[idx-1]
		}
		if j > 0 {
			b = d[idx-nx]
		}
		if i > 0 && j > 0 {
			ab = d[idx-nx-1]
		}
		return a + b - ab
	default: // 3-D Lorenzo: 7 neighbours of the unit cube corner.
		nx := dims[2]
		ny := dims[1]
		i := idx % nx
		j := (idx / nx) % ny
		k := idx / (nx * ny)
		var f100, f010, f001, f110, f101, f011, f111 float64
		if i > 0 {
			f100 = d[idx-1]
		}
		if j > 0 {
			f010 = d[idx-nx]
		}
		if k > 0 {
			f001 = d[idx-nx*ny]
		}
		if i > 0 && j > 0 {
			f110 = d[idx-nx-1]
		}
		if i > 0 && k > 0 {
			f101 = d[idx-nx*ny-1]
		}
		if j > 0 && k > 0 {
			f011 = d[idx-nx*ny-nx]
		}
		if i > 0 && j > 0 && k > 0 {
			f111 = d[idx-nx*ny-nx-1]
		}
		return f100 + f010 + f001 - f110 - f101 - f011 + f111
	}
}

// predictor computes a point's prediction from already-decoded values.
type predictor func(d []float64, dims []int, idx int) float64

// curveFitPredict is SZ 1.4's adaptive 1-D prediction: candidates of order
// 1..3 compete; the winner is whichever would have predicted the PREVIOUS
// point best, a rule computable from decoded data alone so encoder and
// decoder always agree. Multi-dimensional data falls back to Lorenzo.
func curveFitPredict(d []float64, dims []int, idx int) float64 {
	if len(dims) != 1 || idx < 2 {
		return lorenzoPredict(d, dims, idx)
	}
	// Candidates for the current point.
	c1 := d[idx-1]
	c2 := 2*d[idx-1] - d[idx-2]
	c3 := c2
	if idx >= 3 {
		c3 = 3*d[idx-1] - 3*d[idx-2] + d[idx-3]
	}
	// Hindsight errors: how well would each have predicted d[idx-1]?
	e1 := math.Abs(d[idx-2] - d[idx-1])
	e2 := e1
	if idx >= 3 {
		e2 = math.Abs(2*d[idx-2] - d[idx-3] - d[idx-1])
	}
	e3 := e2
	if idx >= 4 {
		e3 = math.Abs(3*d[idx-2] - 3*d[idx-3] + d[idx-4] - d[idx-1])
	}
	switch {
	case e1 <= e2 && e1 <= e3:
		return c1
	case e2 <= e3:
		return c2
	default:
		return c3
	}
}

func (c *Codec) predictor() predictor {
	if c.curveFit {
		return curveFitPredict
	}
	return lorenzoPredict
}

// quantizePoint computes the quantization code for point idx and writes
// its reconstruction into decoded[idx]. All of the point's strictly-lower-
// index neighbours must already be reconstructed.
func quantizePoint(data, decoded []float64, dims []int, eb float64, pred4 predictor, idx int) int {
	v := data[idx]
	pred := pred4(decoded, dims, idx)
	diff := v - pred
	q := math.Round(diff / (2 * eb))
	if math.Abs(q) < radius && !math.IsNaN(q) {
		dec := pred + 2*eb*q
		// Guard against floating-point cancellation pushing the
		// reconstruction outside the bound.
		if math.Abs(dec-v) <= eb {
			decoded[idx] = dec
			return int(q) + radius
		}
	}
	decoded[idx] = v
	return unpredictable
}

// quantizeCore runs the predict–quantize loop with an absolute bound eb.
// It returns the quantization codes and the exactly stored values for
// misses. decoded is scratch of len(data) holding the on-the-fly
// reconstruction, which is also the decompressor's view (every entry is
// written before it is read, so arena-dirty scratch is fine). The codes
// slice is arena-backed: the caller owns it and must return it with
// parallel.PutInts once consumed.
//
// Multi-dimensional domains run the rank-specialized row kernels
// (kernels.go) in a tiled wavefront sweep (wavefront.go), which at one
// worker is the raster scan. Every point sees identical operands at any
// tile count, so codes, decoded, and the exact pool match the scalar
// per-point scan bit for bit. The adaptive curve-fit predictor is
// 1-D only and keeps the scalar loop; multi-D curve-fit streams use the
// Lorenzo kernels, exactly as curveFitPredict falls back to lorenzoPredict.
func quantizeCore(data []float64, dims []int, eb float64, decoded []float64, curveFit bool, workers int) (codes []int, exact []float64) {
	codes = parallel.Ints(len(data))
	switch {
	case len(dims) == 1 && curveFit:
		for idx := range data {
			codes[idx] = quantizePoint(data, decoded, dims, eb, curveFitPredict, idx)
		}
	case len(dims) == 1:
		quantizeRow1(data, decoded, codes, eb)
	default:
		sweepRows(dims, workers, func(k, j, x0, x1 int) {
			quantizeRows(data, decoded, codes, dims, eb, k, j, x0, x1)
		})
	}
	// Collect misses in raster order — the serial pool order.
	for idx, code := range codes {
		if code == unpredictable {
			exact = append(exact, data[idx])
		}
	}
	return codes, exact
}

// dequantizeCore reverses quantizeCore. A raster pre-pass validates every
// code and places the exact values in serial pool order (reproducing the
// scalar error and pool-consumption order); misses are then fixed points
// of the recurrence, so the row kernels of the wavefront sweep only apply
// the prediction to the remaining points.
func dequantizeCore(codes []int, dims []int, eb float64, exact []float64, curveFit bool, workers int) ([]float64, error) {
	out := make([]float64, len(codes))
	e := 0
	for idx, code := range codes {
		if code == unpredictable {
			if e >= len(exact) {
				return nil, fmt.Errorf("sz: exact-value pool exhausted: %w", compress.ErrCorrupt)
			}
			out[idx] = exact[e]
			e++
			continue
		}
		if code < 0 || code > unpredictable {
			return nil, fmt.Errorf("sz: invalid quantization code %d: %w", code, compress.ErrCorrupt)
		}
	}
	if e != len(exact) {
		return nil, fmt.Errorf("sz: unconsumed exact values: %w", compress.ErrCorrupt)
	}
	switch {
	case len(dims) == 1 && curveFit:
		for idx, code := range codes {
			if code == unpredictable {
				continue
			}
			pred := curveFitPredict(out, dims, idx)
			out[idx] = pred + 2*eb*float64(code-radius)
		}
	case len(dims) == 1:
		dequantRow1(out, codes, eb)
	default:
		sweepRows(dims, workers, func(k, j, x0, x1 int) {
			dequantRows(out, codes, dims, eb, k, j, x0, x1)
		})
	}
	return out, nil
}

// payload is the serialised pre-flate content.
//
//	uvarint exactCount | exact float64s | huffman(codes)
func buildPayload(codes []int, exact []float64, workers int) []byte {
	enc := encodeCodes(codes, workers)
	b := make([]byte, 0, 10+8*len(exact)+len(enc))
	b = binary.AppendUvarint(b, uint64(len(exact)))
	for _, v := range exact {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return append(b, enc...)
}

// parsePayload splits a payload into its exact values and quantization
// codes. The codes are arena-backed (see decodeCodes): on success the
// caller returns them with parallel.PutInts after dequantizing.
func parsePayload(b []byte, n int) (codes []int, exact []float64, err error) {
	cnt, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, fmt.Errorf("sz: truncated payload: %w", compress.ErrTruncated)
	}
	pos := sz
	if cnt > uint64(n) {
		return nil, nil, fmt.Errorf("sz: exact count %d exceeds points %d: %w", cnt, n, compress.ErrCorrupt)
	}
	if len(b)-pos < int(cnt)*8 {
		return nil, nil, fmt.Errorf("sz: truncated exact values: %w", compress.ErrTruncated)
	}
	if err := compress.CheckedAlloc("sz: exact values", cnt, uint64(len(b)-pos)/8, 8); err != nil {
		return nil, nil, err
	}
	exact = make([]float64, cnt)
	for i := range exact {
		exact[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
		pos += 8
	}
	codes, err = decodeCodes(b[pos:], n)
	if err != nil {
		return nil, nil, err
	}
	return codes, exact, nil
}

// Compress implements compress.Codec: the predict–quantize wavefront and
// the Huffman stage run on cfg's pool, and the stage spans parent onto the
// span carried by ctx.
func (c *Codec) Compress(ctx context.Context, f *grid.Field, cfg parallel.Config) ([]byte, error) {
	ctx, sp := trace.Start(ctx, "sz.compress")
	defer sp.End()
	// The size-aware cutover keeps small fields off the pool: they cannot
	// amortize wavefront and shard-merge overhead.
	workers := cfg.WorkersFor(8 * int64(f.Len()))
	if hasNaNOrInf(f.Data, workers) {
		err := errors.New("sz: NaN/Inf not supported")
		sp.SetError(err)
		return nil, err
	}
	hdr := compress.EncodeDimsHeader(f.Dims)
	hdr = append(hdr, byte(c.mode))
	var flags byte
	if c.curveFit {
		flags |= flagCurveFit
	}
	hdr = append(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(c.bound))

	var raw []byte
	switch c.mode {
	case Abs, ValueRangeRel:
		eb := c.effectiveBound(f)
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(eb))
		// Arena scratch: every entry of decoded and codes is written before
		// it is read, so dirty slices are safe.
		decoded := parallel.Floats(f.Len())
		_, qs := trace.Start(ctx, "sz.quantize")
		codes, exact := quantizeCore(f.Data, f.Dims, eb, decoded, c.curveFit, workers)
		qs.AddItems(int64(len(codes)))
		qs.End()
		if sp != nil {
			obsBinHits.Add(int64(len(codes) - len(exact)))
			obsUnpredictable.Add(int64(len(exact)))
		}
		if invariant.Enabled {
			// Predict→quantize boundary: the on-the-fly reconstruction (the
			// decoder's exact view) must honour the pointwise bound, and
			// every quantization code must be in the coder's alphabet.
			invariant.ErrorBound(f.Data, decoded, eb, "sz: predict-quantize")
			for _, q := range codes {
				invariant.InRange(q, 0, unpredictable+1, "sz: quantization code")
			}
		}
		_, hs := trace.Start(ctx, "sz.huffman")
		raw = buildPayload(codes, exact, workers)
		hs.SetBytes(int64(8*len(codes)), int64(len(raw)))
		hs.End()
		parallel.PutInts(codes)
		parallel.PutFloats(decoded)

	case PointwiseRel:
		// Log-domain transform: bounding |log2 x - log2 x'| <= eb' bounds
		// the pointwise relative error by 2^eb' - 1 >= Bound.
		ebLog := math.Log2(1+c.bound) / 2 // halved for symmetric headroom
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(ebLog))
		// Arena scratch: signs is or-ed into so it must start zeroed; logs
		// and decoded are fully written before being read.
		signs := parallel.Bytes((f.Len() + 7) / 8)
		for i := range signs {
			signs[i] = 0
		}
		logs := parallel.Floats(f.Len())
		var exactZero []int
		for i, v := range f.Data {
			switch {
			case v == 0:
				exactZero = append(exactZero, i)
				logs[i] = 0
			case v < 0:
				signs[i/8] |= 1 << uint(i%8)
				logs[i] = math.Log2(-v)
			default:
				logs[i] = math.Log2(v)
			}
		}
		decoded := parallel.Floats(f.Len())
		_, qs := trace.Start(ctx, "sz.quantize")
		codes, exact := quantizeCore(logs, f.Dims, ebLog, decoded, c.curveFit, workers)
		qs.AddItems(int64(len(codes)))
		qs.End()
		if sp != nil {
			obsBinHits.Add(int64(len(codes) - len(exact)))
			obsUnpredictable.Add(int64(len(exact)))
		}
		if invariant.Enabled {
			// Log-domain quantize boundary: bounding |log2 x − log2 x′|
			// by ebLog is what bounds the relative error by 2^ebLog − 1.
			invariant.ErrorBound(logs, decoded, ebLog, "sz: log-quantize")
		}
		// Zero positions are re-marked as unpredictable-with-zero via a
		// dedicated list so the log path never sees them on decode.
		var zb []byte
		zb = binary.AppendUvarint(zb, uint64(len(exactZero)))
		prev := 0
		for _, z := range exactZero {
			zb = binary.AppendUvarint(zb, uint64(z-prev))
			prev = z
		}
		raw = append(zb, signs...)
		_, hs := trace.Start(ctx, "sz.huffman")
		raw = append(raw, buildPayload(codes, exact, workers)...)
		hs.SetBytes(int64(8*len(codes)), int64(len(raw)))
		hs.End()
		parallel.PutInts(codes)
		parallel.PutFloats(decoded)
		parallel.PutFloats(logs)
		parallel.PutBytes(signs)
	}

	_, fs := trace.Start(ctx, "sz.flate")
	body, err := compress.FlateBytes(raw, 6)
	fs.SetBytes(int64(len(raw)), int64(len(body)))
	fs.SetError(err)
	fs.End()
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	out := append(hdr, body...)
	sp.SetBytes(int64(8*f.Len()), int64(len(out)))
	return out, nil
}

// Decompress implements compress.Codec. Failures wrap the
// compress.ErrTruncated / compress.ErrCorrupt taxonomy.
func (c *Codec) Decompress(ctx context.Context, data []byte, cfg parallel.Config) (*grid.Field, error) {
	ctx, sp := trace.Start(ctx, "sz.decompress")
	defer sp.End()
	f, err := decompress(ctx, data, cfg)
	if err != nil {
		err = compress.Classify(err)
		sp.SetError(err)
		return nil, err
	}
	sp.SetBytes(int64(len(data)), int64(8*f.Len()))
	return f, nil
}

func decompress(ctx context.Context, data []byte, cfg parallel.Config) (*grid.Field, error) {
	dims, rest, err := compress.DecodeDimsHeader(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 1+1+8+8 {
		return nil, fmt.Errorf("sz: truncated header: %w", compress.ErrTruncated)
	}
	mode := Mode(rest[0])
	if mode > PointwiseRel {
		return nil, fmt.Errorf("sz: unknown mode %d in stream: %w", rest[0], compress.ErrHeader)
	}
	flags := rest[1]
	if flags&^flagCurveFit != 0 {
		return nil, fmt.Errorf("sz: unknown flags %#x in stream: %w", flags, compress.ErrHeader)
	}
	curveFit := flags&flagCurveFit != 0
	// rest[2:10] is the nominal bound (informational on decode).
	eb := math.Float64frombits(binary.LittleEndian.Uint64(rest[10:18]))
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: invalid effective bound %v: %w", eb, compress.ErrHeader)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	// The dims are already parsed, so the inflated size is boundable up
	// front: worst case ~26 bytes/point (exact value + huffman code + zero
	// list) plus a bounded alphabet header. Anything larger is a bomb.
	_, is := trace.Start(ctx, "sz.inflate")
	raw, err := compress.InflateBytesCap(rest[18:], 32*int64(n)+(1<<20))
	is.SetBytes(int64(len(rest)-18), int64(len(raw)))
	is.SetError(err)
	is.End()
	if err != nil {
		return nil, err
	}

	// Every point costs at least one Huffman bit, so the claimed dims
	// cannot exceed the inflated payload's bit count.
	if err := compress.CheckedAlloc("sz: field", uint64(n), 8*uint64(len(raw))+64, 8); err != nil {
		return nil, err
	}

	switch mode {
	case Abs, ValueRangeRel:
		codes, exact, err := parsePayload(raw, n)
		if err != nil {
			return nil, err
		}
		defer parallel.PutInts(codes)
		_, ds := trace.Start(ctx, "sz.dequantize")
		vals, err := dequantizeCore(codes, dims, eb, exact, curveFit, cfg.WorkersFor(8*int64(n)))
		ds.AddItems(int64(len(codes)))
		ds.SetError(err)
		ds.End()
		if err != nil {
			return nil, err
		}
		invariant.SameLen(vals, codes, "sz: dequantize")
		return grid.FromData(vals, dims...)

	case PointwiseRel:
		pos := 0
		zcnt, sz := binary.Uvarint(raw)
		if sz <= 0 || zcnt > uint64(n) {
			return nil, fmt.Errorf("sz: bad zero list: %w", compress.ErrCorrupt)
		}
		pos += sz
		// Every zero-list entry costs at least one delta byte.
		if err := compress.CheckedAlloc("sz: zero list", zcnt, uint64(len(raw)-pos), 8); err != nil {
			return nil, err
		}
		zeros := make([]int, zcnt)
		prev := uint64(0)
		for i := range zeros {
			d, s := binary.Uvarint(raw[pos:])
			if s <= 0 {
				return nil, fmt.Errorf("sz: truncated zero list: %w", compress.ErrTruncated)
			}
			pos += s
			prev += d
			if prev >= uint64(n) {
				return nil, fmt.Errorf("sz: zero index out of range: %w", compress.ErrCorrupt)
			}
			zeros[i] = int(prev)
		}
		signBytes := (n + 7) / 8
		if len(raw)-pos < signBytes {
			return nil, fmt.Errorf("sz: truncated sign bitmap: %w", compress.ErrTruncated)
		}
		signs := raw[pos : pos+signBytes]
		pos += signBytes
		codes, exact, err := parsePayload(raw[pos:], n)
		if err != nil {
			return nil, err
		}
		defer parallel.PutInts(codes)
		_, ds := trace.Start(ctx, "sz.dequantize")
		logs, err := dequantizeCore(codes, dims, eb, exact, curveFit, cfg.WorkersFor(8*int64(n)))
		ds.AddItems(int64(len(codes)))
		ds.SetError(err)
		ds.End()
		if err != nil {
			return nil, err
		}
		vals := make([]float64, n)
		for i, lg := range logs {
			v := math.Exp2(lg)
			if signs[i/8]>>uint(i%8)&1 == 1 {
				v = -v
			}
			vals[i] = v
		}
		for _, z := range zeros {
			vals[z] = 0
		}
		return grid.FromData(vals, dims...)
	}
	return nil, fmt.Errorf("sz: unreachable mode %d: %w", mode, compress.ErrCorrupt)
}

func init() {
	// Streams are self-describing (mode/bound come from the header), so the
	// constructor arguments only seed a receiver.
	compress.Register("sz", MustNew(Abs, 1e-5).Decompress)
}
