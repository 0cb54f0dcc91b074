package core

import "fmt"

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

// Partial is the report of a degraded-mode chunked decompression
// (DecompressOpts.Partial): which chunks failed, with the regions the
// returned field leaves zero-filled.
type Partial struct {
	// Errors lists the chunks that failed to decode, in chunk order.
	Errors []ChunkError
	// Chunks is the container's total chunk count.
	Chunks int
	// Trailing counts garbage bytes found after the last chunk record
	// (tolerated in degraded mode, an error in strict mode).
	Trailing int
}

// Complete reports whether every chunk decoded and no trailing bytes were
// found, i.e. whether the same Decompress call with a nil Partial would
// have succeeded.
func (p *Partial) Complete() bool { return len(p.Errors) == 0 && p.Trailing == 0 }
