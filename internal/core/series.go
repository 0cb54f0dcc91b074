package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// seriesMagic marks the time-series container format.
const seriesMagic = "LRMS"

// SeriesResult is the outcome of CompressSeries.
type SeriesResult struct {
	// Archive is the self-describing multi-frame container.
	Archive []byte
	// OriginalBytes is the total raw size across frames.
	OriginalBytes int
	// FrameBytes records each stored frame's compressed size.
	FrameBytes []int
}

// Ratio returns the whole-series compression ratio.
func (r *SeriesResult) Ratio() float64 {
	if len(r.Archive) == 0 {
		return 0
	}
	return float64(r.OriginalBytes) / float64(len(r.Archive))
}

// CompressSeries compresses a simulation output time series using the
// previous frame as the reduced model: frame 0 goes through the normal
// pipeline (with opts.Model, if any), and every later frame stores only its
// delta against the previous frame's *reconstruction*, compressed with the
// delta codec. This is the temporal cousin of the paper's spatial reduced
// models — successive outputs of a simulation are themselves highly similar
// (the delta-snapshot idea the paper's introduction cites), so the temporal
// delta is small and smooth.
//
// Computing each delta against the previous reconstruction (not the
// previous original) stops quantisation error from accumulating across
// frames: every frame's error is bounded by a single delta-codec pass.
//
// Note that even with a lossless delta codec the series is only
// near-exact, not bit-exact: (f - prev) + prev re-rounds in floating
// point. Use per-frame Compress when bit-exactness matters.
//
// Every frame's pipeline spans nest under one core.compress_series root
// parented onto ctx.
func CompressSeries(ctx context.Context, snaps []*grid.Field, opts Options) (res *SeriesResult, err error) {
	ctx, sp := trace.Start(ctx, "core.compress_series")
	defer sp.End()
	defer func() { sp.SetError(err) }()
	if len(snaps) == 0 {
		return nil, errors.New("core: empty series")
	}
	if opts.DataCodec == nil {
		return nil, errors.New("core: DataCodec is required")
	}
	deltaCodec := opts.DeltaCodec
	if deltaCodec == nil {
		deltaCodec = opts.DataCodec
	}

	var buf bytes.Buffer
	buf.WriteString(seriesMagic)
	writeUvarint(&buf, uint64(len(snaps)))
	writeString(&buf, compress.CodecFamily(deltaCodec.Name()))

	res = &SeriesResult{}

	// Frame 0: the full pipeline.
	first, err := Compress(ctx, snaps[0], opts)
	if err != nil {
		return nil, fmt.Errorf("core: series frame 0: %w", err)
	}
	writeBytes(&buf, first.Archive)
	res.FrameBytes = append(res.FrameBytes, len(first.Archive))
	res.OriginalBytes += 8 * snaps[0].Len()

	// The rolling reconstruction the decoder will hold.
	prev, err := Decompress(ctx, first.Archive, DecompressOpts{Parallel: opts.Parallel})
	if err != nil {
		return nil, fmt.Errorf("core: series frame 0 verify: %w", err)
	}

	for i := 1; i < len(snaps); i++ {
		f := snaps[i]
		res.OriginalBytes += 8 * f.Len()
		delta, err := f.Sub(prev)
		if err != nil {
			return nil, fmt.Errorf("core: series frame %d: %w", i, err)
		}
		stream, err := deltaCodec.Compress(ctx, delta, opts.Parallel)
		if err != nil {
			return nil, fmt.Errorf("core: series frame %d: %w", i, err)
		}
		writeBytes(&buf, stream)
		res.FrameBytes = append(res.FrameBytes, len(stream))

		// Advance the rolling reconstruction exactly as the decoder will.
		dhat, err := deltaCodec.Decompress(ctx, stream, opts.Parallel)
		if err != nil {
			return nil, fmt.Errorf("core: series frame %d verify: %w", i, err)
		}
		if err := prev.AddInPlace(dhat); err != nil {
			return nil, err
		}
	}
	res.Archive = buf.Bytes()
	sp.SetBytes(int64(res.OriginalBytes), int64(len(res.Archive)))
	sp.AddItems(int64(len(snaps)))
	return res, nil
}

// DecompressSeries reverses CompressSeries on the budget opts.Parallel,
// returning every frame. Its spans parent onto ctx. Failures wrap
// compress.ErrTruncated / compress.ErrCorrupt. A series has no degraded
// mode: it always fails fast and ignores opts.Partial.
func DecompressSeries(ctx context.Context, archive []byte, opts DecompressOpts) ([]*grid.Field, error) {
	ctx, sp := trace.Start(ctx, "core.decompress_series")
	defer sp.End()
	frames, err := decompressSeries(ctx, archive, opts.Parallel)
	if err != nil {
		err = compress.Classify(err)
		sp.SetError(err)
		return nil, err
	}
	sp.AddItems(int64(len(frames)))
	return frames, nil
}

func decompressSeries(ctx context.Context, archive []byte, cfg parallel.Config) ([]*grid.Field, error) {
	r, err := open(archive, seriesMagic)
	if err != nil {
		return nil, err
	}
	count := int(r.uvarint())
	deltaCodecName := r.string()
	if r.err != nil {
		return nil, fmt.Errorf("core: corrupt series header: %w", r.err)
	}
	if count < 1 || count > 1<<24 {
		return nil, fmt.Errorf("core: implausible frame count %d: %w", count, compress.ErrHeader)
	}
	// Every stored frame costs at least one byte, so a tiny archive cannot
	// claim a frame-slice allocation it could never fill.
	if err := compress.CheckedAlloc("core: series frames", uint64(count), uint64(len(archive)), 8); err != nil {
		return nil, err
	}
	deltaDecode, err := compress.DecoderFor(deltaCodecName)
	if err != nil {
		return nil, err
	}

	frames := make([]*grid.Field, 0, count)
	firstArchive := r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated series frame 0: %w", r.err)
	}
	cur, err := decompress(ctx, firstArchive, DecompressOpts{Parallel: cfg})
	if err != nil {
		return nil, fmt.Errorf("core: series frame 0: %w", err)
	}
	frames = append(frames, cur.Clone())

	for i := 1; i < count; i++ {
		stream := r.bytes()
		if r.err != nil {
			return nil, fmt.Errorf("core: truncated series frame %d: %w", i, r.err)
		}
		delta, err := deltaDecode(ctx, stream, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: series frame %d: %w", i, err)
		}
		if err := cur.AddInPlace(delta); err != nil {
			return nil, fmt.Errorf("core: series frame %d: %w", i, compress.Classify(err))
		}
		frames = append(frames, cur.Clone())
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("core: %d trailing bytes after series: %w", len(r.buf)-r.pos, compress.ErrCorrupt)
	}
	return frames, nil
}
