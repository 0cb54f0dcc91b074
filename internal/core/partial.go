package core

import (
	"context"
	"fmt"

	"lrm/internal/compress"
	"lrm/internal/grid"
)

// ChunkError reports one failed chunk of a degraded-mode chunked
// decompression, with the leading-dimension slab it covers so callers know
// exactly which region of the field is unrecovered.
type ChunkError struct {
	Chunk  int   // chunk index in the container
	Lo, Hi int   // leading-dimension slab [Lo, Hi) the chunk covers
	Err    error // wraps compress.ErrTruncated or compress.ErrCorrupt
}

// Error implements the error interface.
func (e ChunkError) Error() string {
	return fmt.Sprintf("chunk %d (rows [%d,%d)): %v", e.Chunk, e.Lo, e.Hi, e.Err)
}

// Unwrap exposes the underlying decode error for errors.Is.
func (e ChunkError) Unwrap() error { return e.Err }

// Partial is the outcome of a degraded-mode chunked decompression: the
// field with every surviving chunk's region filled in (failed regions stay
// zero) plus a per-chunk error report.
type Partial struct {
	// Field has the container's full dims; regions listed in Errors are
	// zero-filled.
	Field *grid.Field
	// Errors lists the chunks that failed to decode, in chunk order.
	Errors []ChunkError
	// Chunks is the container's total chunk count.
	Chunks int
	// Trailing counts garbage bytes found after the last chunk record
	// (tolerated in degraded mode, an error in strict mode).
	Trailing int
}

// Complete reports whether every chunk decoded and no trailing bytes were
// found — i.e. whether strict DecompressWithOptsCtx would have succeeded.
func (p *Partial) Complete() bool { return len(p.Errors) == 0 && p.Trailing == 0 }

// DecompressChunkedPartialWithOptsCtx is the degraded-mode counterpart of
// DecompressWithOptsCtx for LRMC archives: instead of failing fast on the
// first bad chunk, it decodes every chunk that survives CRC validation and
// reports the failures per chunk, so a partially corrupted archive still
// yields the intact subdomains (the per-rank recovery story of the paper's
// Table IV runs — one rank's bad chunk should not discard every other
// rank's data).
//
// An error is returned only when the container header itself is too damaged
// to frame any chunk; per-chunk failures land in Partial.Errors. Failed
// chunks' spans carry their decode error, so a degraded recovery always
// lands in the trace ring's errored pool. ctx is consulted at every chunk
// boundary: once canceled, remaining chunks are skipped and the call fails
// with an error wrapping compress.ErrCanceled (degraded mode does not apply
// to cancellation — a client disconnect is not data loss).
func DecompressChunkedPartialWithOptsCtx(ctx context.Context, archive []byte, opts DecompressOpts) (*Partial, error) {
	p, err := chunkedDecode(ctx, archive, opts.Parallel, true)
	if err != nil {
		return nil, compress.Classify(err)
	}
	return p, nil
}
