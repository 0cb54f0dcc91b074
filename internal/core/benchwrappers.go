package core

import (
	"context"

	"lrm/internal/grid"
)

// CompressCtx is Compress.
//
// Only lrmbench3/layers.go calls this; the ROADMAP item "one benchmark
// PR, then delete the wrappers" deletes it.
func CompressCtx(ctx context.Context, f *grid.Field, opts Options) (*Result, error) {
	return Compress(ctx, f, opts)
}

// CompressChunkedCtx is CompressChunked.
//
// Only lrmbench3/layers.go calls this; the ROADMAP item "one benchmark
// PR, then delete the wrappers" deletes it.
func CompressChunkedCtx(ctx context.Context, f *grid.Field, opts Options, chunks int) (*Result, error) {
	return CompressChunked(ctx, f, opts, chunks)
}

// DecompressCtx is Decompress with default options.
//
// Only lrmbench3/layers.go calls this; the ROADMAP item "one benchmark
// PR, then delete the wrappers" deletes it.
func DecompressCtx(ctx context.Context, archive []byte) (*grid.Field, error) {
	return Decompress(ctx, archive, DecompressOpts{})
}

// DecompressWithOptsCtx is Decompress.
//
// Only lrmbench3/layers.go calls this; the ROADMAP item "one benchmark
// PR, then delete the wrappers" deletes it.
func DecompressWithOptsCtx(ctx context.Context, archive []byte, opts DecompressOpts) (*grid.Field, error) {
	return Decompress(ctx, archive, opts)
}
