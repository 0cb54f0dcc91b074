// Package compress defines the common codec interface shared by the ZFP-,
// SZ-, and FPC-style compressors and provides a flate-based lossless
// baseline plus ratio helpers.
package compress

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"sync"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// Codec compresses and decompresses whole fields. A codec value holds only
// the stream format (mode, bound, precision); how a call executes is an
// argument of that call:
//
//   - ctx carries observability: spans the codec opens parent onto the span
//     in ctx, and pool workers inherit the caller's pprof labels.
//   - cfg is the execution budget: the worker-pool size plus the size-aware
//     shard cutover (parallel.Config.MinShardBytes). The zero value selects
//     the defaults; Workers == 1 forces serial execution.
//
// Implementations MUST produce byte-identical streams, and identical
// decoded fields, at every cfg and for every ctx: both trade latency and
// visibility, never format. Callers may therefore resize freely (e.g. the
// chunked container dividing a pool among chunks). A codec's stream is
// self-describing: Decompress needs no side information.
type Codec interface {
	// Name identifies the codec and its configuration, e.g. "zfp(p=16)".
	Name() string
	// Lossless reports whether Decompress(Compress(f)) is bit-exact.
	Lossless() bool
	Compress(ctx context.Context, f *grid.Field, cfg parallel.Config) ([]byte, error)
	Decompress(ctx context.Context, b []byte, cfg parallel.Config) (*grid.Field, error)
}

// CompressCtx compresses f with c on the default parallel config. Library
// code calls c.Compress with its caller's budget; this wrapper and
// DecompressCtx remain only for the lrmbench3 module's codec layer.
func CompressCtx(ctx context.Context, c Codec, f *grid.Field) ([]byte, error) {
	return c.Compress(ctx, f, parallel.Config{})
}

// DecompressCtx decompresses b with c on the default parallel config.
func DecompressCtx(ctx context.Context, c Codec, b []byte) (*grid.Field, error) {
	return c.Decompress(ctx, b, parallel.Config{})
}

// ErrorBounded is the optional interface of codecs that guarantee a
// pointwise absolute error bound: for every point, |x − x′| ≤ bound after
// a Compress/Decompress round trip. The bound may depend on the input
// (value-range-relative modes). Lossless codecs return bound 0. Codecs
// whose guarantee is not expressible as a single absolute bound for f
// (pointwise-relative, fixed-precision, fixed-rate) return ok == false.
//
// The invariants build (-tags invariants) uses this interface to assert
// the paper's end-to-end guarantee at pipeline stage boundaries.
type ErrorBounded interface {
	AbsErrorBound(f *grid.Field) (bound float64, ok bool)
}

// Ratio returns the compression ratio of a field against its encoding
// (original bytes / compressed bytes).
func Ratio(f *grid.Field, compressed []byte) float64 {
	if len(compressed) == 0 {
		return 0
	}
	return float64(8*f.Len()) / float64(len(compressed))
}

// RatioBytes returns origBytes/compressedBytes.
func RatioBytes(orig, compressed int) float64 {
	if compressed == 0 {
		return 0
	}
	return float64(orig) / float64(compressed)
}

// FlateBytes deflates a raw byte slice at the given level (flate levels
// -2..9; use flate.BestCompression for max effort).
func FlateBytes(b []byte, level int) ([]byte, error) {
	if level < -2 || level > 9 {
		_, err := flate.NewWriter(io.Discard, level)
		return nil, err
	}
	// One pooled writer per level: flate.NewWriter builds a fresh ~700 KiB
	// window/hash state per call, which used to dominate the sz allocation
	// profile. Reset makes a pooled writer "equivalent to the result of
	// NewWriter" (its documented contract), so reuse never changes a byte
	// of output.
	pool := &flateWriterPools[level+2]
	var buf bytes.Buffer
	w, _ := pool.Get().(*flate.Writer)
	if w == nil {
		var err error
		w, err = flate.NewWriter(&buf, level)
		if err != nil {
			return nil, err
		}
	} else {
		w.Reset(&buf)
	}
	defer pool.Put(w)
	if _, err := w.Write(b); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// flateWriterPools caches flate writers by compression level (-2..9 maps
// to indices 0..11).
var flateWriterPools [12]sync.Pool

// maxInflate caps decompression-bomb expansion: no legitimate stream in
// this repository inflates beyond 8 bytes per element of MaxElements.
const maxInflate = int64(8*MaxElements) + 1

// InflateBytes reverses FlateBytes. Output is capped so a crafted tiny
// stream cannot expand without bound.
func InflateBytes(b []byte) ([]byte, error) { return InflateBytesCap(b, maxInflate-1) }

// InflateBytesCap is InflateBytes with a caller-supplied output bound, for
// decoders that already know (from an earlier header field) how large the
// inflated content can legitimately be. The effective bound is further
// clamped by the global maxInflate and the decode allocation cap, so a
// hostile length claim cannot widen it. maxOut < 0 means "no caller bound".
func InflateBytesCap(b []byte, maxOut int64) ([]byte, error) {
	if maxOut < 0 || maxOut > maxInflate-1 {
		maxOut = maxInflate - 1
	}
	if c := DecodeAllocCap(); maxOut > c {
		maxOut = c
	}
	r := flate.NewReader(bytes.NewReader(b))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, maxOut+1))
	if err != nil {
		return nil, Classify(fmt.Errorf("compress: inflate: %w", err))
	}
	if int64(len(out)) > maxOut {
		return nil, fmt.Errorf("compress: inflated output exceeds %d bytes: %w", maxOut, ErrCorrupt)
	}
	return out, nil
}

// Flate is a lossless general-purpose codec over the raw float64 bytes of a
// field. It stands in for the "conventional lossless compressor" baselines
// the paper contrasts with.
type Flate struct {
	Level int // flate compression level; 0 means flate.DefaultCompression
}

// NewFlate returns a Flate codec at the given level.
func NewFlate(level int) *Flate { return &Flate{Level: level} }

// Name implements Codec.
func (c *Flate) Name() string { return fmt.Sprintf("flate(l=%d)", c.level()) }

// Lossless implements Codec.
func (c *Flate) Lossless() bool { return true }

// AbsErrorBound implements ErrorBounded: flate is lossless.
func (c *Flate) AbsErrorBound(f *grid.Field) (float64, bool) { return 0, true }

func (c *Flate) level() int {
	if c.Level == 0 {
		return flate.DefaultCompression
	}
	return c.Level
}

// Compress implements Codec. Flate is serial and opens no spans, so ctx
// and cfg are unused.
func (c *Flate) Compress(_ context.Context, f *grid.Field, _ parallel.Config) ([]byte, error) {
	hdr := EncodeDimsHeader(f.Dims)
	body, err := FlateBytes(f.Bytes(), c.level())
	if err != nil {
		return nil, err
	}
	return append(hdr, body...), nil
}

// Decompress implements Codec.
func (c *Flate) Decompress(_ context.Context, b []byte, _ parallel.Config) (*grid.Field, error) {
	dims, rest, err := DecodeDimsHeader(b)
	if err != nil {
		return nil, err
	}
	n := int64(1)
	for _, d := range dims {
		n *= int64(d)
	}
	raw, err := InflateBytesCap(rest, 8*n)
	if err != nil {
		return nil, err
	}
	f, err := grid.FromBytes(raw, dims...)
	if err != nil {
		return nil, Classify(err)
	}
	return f, nil
}
