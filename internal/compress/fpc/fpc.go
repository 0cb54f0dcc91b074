// Package fpc implements the FPC lossless double-precision compressor of
// Burtscher & Ratanaworabhan (IEEE Trans. Computers 2009), the lossless
// comparator the paper uses in Fig. 3.
//
// FPC predicts each 64-bit IEEE double with two hash-table predictors — an
// fcm (finite context method) over recent values and a dfcm (differential
// fcm) over recent deltas — XORs the better prediction with the true bits,
// and encodes the residual as a 4-bit header (predictor selector + count of
// leading zero bytes) plus the non-zero residual bytes. Header nibbles are
// packed in pairs, exactly as in the reference implementation.
package fpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/invariant"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// Hoisted predictor-selection counters: the encode loop accumulates plain
// locals and flushes once per call, so the hot path never touches atomics.
var (
	obsFCMSelected  = obs.GetCounter("fpc.fcm_selected")
	obsDFCMSelected = obs.GetCounter("fpc.dfcm_selected")
)

// Codec is an FPC compressor. Level selects the predictor table size:
// 2^level entries per table (the paper runs level 20, table size 2^24
// bytes; each entry is 8 bytes, so level = 20 gives 2*2^20*8 = 16 MiB).
type Codec struct {
	level uint
}

// New returns an FPC codec with 2^level-entry predictor tables.
func New(level int) (*Codec, error) {
	if level < 1 || level > 24 {
		return nil, fmt.Errorf("fpc: level %d out of range [1,24]", level)
	}
	return &Codec{level: uint(level)}, nil
}

// MustNew is New but panics on invalid level; for use in tables.
func MustNew(level int) *Codec {
	c, err := New(level)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements compress.Codec.
func (c *Codec) Name() string { return fmt.Sprintf("fpc(l=%d)", c.level) }

// Lossless implements compress.Codec.
func (c *Codec) Lossless() bool { return true }

// AbsErrorBound implements compress.ErrorBounded: FPC is lossless, so the
// pointwise bound is exactly zero.
func (c *Codec) AbsErrorBound(f *grid.Field) (float64, bool) { return 0, true }

// predictor state shared by encode and decode (they must evolve
// identically).
type predictor struct {
	fcm, dfcm []uint64
	fcmHash   uint64
	dfcmHash  uint64
	lastValue uint64
	mask      uint64
}

func newPredictor(level uint) *predictor {
	size := 1 << level
	return &predictor{
		fcm:  make([]uint64, size),
		dfcm: make([]uint64, size),
		mask: uint64(size - 1),
	}
}

// predict returns the two candidate predictions for the next value.
func (p *predictor) predict() (fcmPred, dfcmPred uint64) {
	return p.fcm[p.fcmHash], p.dfcm[p.dfcmHash] + p.lastValue
}

// update trains both tables with the true value.
func (p *predictor) update(trueVal uint64) {
	p.fcm[p.fcmHash] = trueVal
	p.fcmHash = ((p.fcmHash << 6) ^ (trueVal >> 48)) & p.mask

	delta := trueVal - p.lastValue
	p.dfcm[p.dfcmHash] = delta
	p.dfcmHash = ((p.dfcmHash << 2) ^ (delta >> 40)) & p.mask

	p.lastValue = trueVal
}

// leadingZeroBytes counts whole zero bytes from the most significant end,
// collapsing 4 to 3 so the count fits in 3 bits (FPC's trick: the code
// space {0,1,2,3,5,6,7,8} skips 4, which is rare).
func leadingZeroBytes(x uint64) int {
	n := 0
	for n < 8 && x>>(56-8*uint(n))&0xff == 0 {
		n++
	}
	if n == 4 {
		n = 3
	}
	return n
}

// lzbCode maps a leading-zero-byte count to the 3-bit code and back.
func lzbToCode(n int) uint8 {
	if n >= 5 {
		return uint8(n - 1)
	}
	return uint8(n)
}

func codeToLzb(c uint8) int {
	if c >= 4 {
		return int(c) + 1
	}
	return int(c)
}

// Compress implements compress.Codec, with the span parented onto the span
// carried by ctx. FPC's value loop is inherently serial (the predictor
// tables evolve value by value), so cfg is unused and the codec contributes
// a single span rather than shard children.
func (c *Codec) Compress(ctx context.Context, f *grid.Field, _ parallel.Config) ([]byte, error) {
	_, sp := trace.Start(ctx, "fpc.compress")
	defer sp.End()
	n := f.Len()
	p := newPredictor(c.level)

	headers := make([]byte, (n+1)/2) // one nibble per value
	var residuals []byte
	var nFCM, nDFCM int64

	for i, v := range f.Data {
		bits := math.Float64bits(v)
		fcmPred, dfcmPred := p.predict()
		xf := bits ^ fcmPred
		xd := bits ^ dfcmPred

		var sel uint8
		var resid uint64
		if lzf, lzd := leadingZeroBytes(xf), leadingZeroBytes(xd); lzf >= lzd {
			sel, resid = 0, xf
			nFCM++
		} else {
			sel, resid = 1, xd
			nDFCM++
		}
		lzb := leadingZeroBytes(resid)
		nibble := sel<<3 | lzbToCode(lzb)
		if invariant.Enabled {
			// Header-nibble boundary: the 3-bit code space must round-trip
			// the leading-zero-byte count (4 is collapsed to 3 upstream),
			// and the decoder must recover the true bits from the residual
			// it will read back.
			invariant.Assert(codeToLzb(lzbToCode(lzb)) == lzb, "fpc: lzb %d does not survive the 3-bit code", lzb)
			check := resid
			if sel == 0 {
				check ^= fcmPred
			} else {
				check ^= dfcmPred
			}
			invariant.Assert(check == bits, "fpc: residual %#x does not reconstruct value %#x", resid, bits)
		}
		if i%2 == 0 {
			headers[i/2] = nibble << 4
		} else {
			headers[i/2] |= nibble
		}
		for b := 8 - lzb - 1; b >= 0; b-- {
			residuals = append(residuals, byte(resid>>(8*uint(b))))
		}
		p.update(bits)
	}

	// The residual stream length is stored as a uint32; MaxElements keeps
	// legitimate fields far below this, so overflow means a pipeline bug.
	invariant.Assert(len(residuals) <= math.MaxUint32, "fpc: residual stream %d bytes overflows the u32 length field", len(residuals))

	out := compress.EncodeDimsHeader(f.Dims)
	out = append(out, byte(c.level))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(residuals)))
	out = append(out, headers...)
	out = append(out, residuals...)
	if sp != nil {
		obsFCMSelected.Add(nFCM)
		obsDFCMSelected.Add(nDFCM)
		sp.SetBytes(int64(8*n), int64(len(out)))
		sp.AddItems(int64(n))
	}
	return out, nil
}

// Decompress implements compress.Codec; like Compress it is serial. Failures
// wrap the compress.ErrTruncated / compress.ErrCorrupt taxonomy.
func (c *Codec) Decompress(ctx context.Context, data []byte, _ parallel.Config) (*grid.Field, error) {
	_, sp := trace.Start(ctx, "fpc.decompress")
	defer sp.End()
	f, err := c.decompress(data)
	if err != nil {
		err = compress.Classify(err)
		sp.SetError(err)
		return nil, err
	}
	sp.SetBytes(int64(len(data)), int64(8*f.Len()))
	return f, nil
}

func (c *Codec) decompress(data []byte) (*grid.Field, error) {
	dims, rest, err := compress.DecodeDimsHeader(data)
	if err != nil {
		return nil, err
	}
	if len(rest) < 5 {
		return nil, fmt.Errorf("fpc: truncated stream: %w", compress.ErrTruncated)
	}
	level := uint(rest[0])
	if level < 1 || level > 24 {
		return nil, fmt.Errorf("fpc: invalid level %d in stream: %w", level, compress.ErrHeader)
	}
	// The predictor tables are sized by an untrusted header byte (up to
	// 2*2^24 entries); charge them against the decode cap before allocating.
	if err := compress.CheckedAlloc("fpc: predictor tables", 2<<level, 2<<level, 8); err != nil {
		return nil, err
	}
	residLen := int(binary.LittleEndian.Uint32(rest[1:5]))
	rest = rest[5:]

	n := 1
	for _, d := range dims {
		n *= d
	}
	headerLen := (n + 1) / 2
	if len(rest) < headerLen+residLen {
		return nil, fmt.Errorf("fpc: stream length %d < headers %d + residuals %d: %w",
			len(rest), headerLen, residLen, compress.ErrTruncated)
	}
	if len(rest) != headerLen+residLen {
		return nil, fmt.Errorf("fpc: stream length %d != headers %d + residuals %d: %w",
			len(rest), headerLen, residLen, compress.ErrCorrupt)
	}
	headers := rest[:headerLen]
	residuals := rest[headerLen:]

	p := newPredictor(level)
	f, err := compress.NewCheckedField("fpc: field", dims)
	if err != nil {
		return nil, err
	}
	rp := 0
	for i := 0; i < n; i++ {
		var nibble uint8
		if i%2 == 0 {
			nibble = headers[i/2] >> 4
		} else {
			nibble = headers[i/2] & 0xf
		}
		sel := nibble >> 3
		lzb := codeToLzb(nibble & 7)
		count := 8 - lzb
		if rp+count > len(residuals) {
			return nil, fmt.Errorf("fpc: residual bytes exhausted: %w", compress.ErrTruncated)
		}
		var resid uint64
		for b := 0; b < count; b++ {
			resid = resid<<8 | uint64(residuals[rp])
			rp++
		}
		fcmPred, dfcmPred := p.predict()
		var bits uint64
		if sel == 0 {
			bits = resid ^ fcmPred
		} else {
			bits = resid ^ dfcmPred
		}
		f.Data[i] = math.Float64frombits(bits)
		p.update(bits)
	}
	if rp != len(residuals) {
		return nil, fmt.Errorf("fpc: trailing residual bytes: %w", compress.ErrCorrupt)
	}
	return f, nil
}

func init() {
	compress.Register("fpc", MustNew(16).Decompress)
}
