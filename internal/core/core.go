// Package core implements the paper's end-to-end preconditioning pipeline
// (Fig. 5):
//
//	reduction phase:      data -> reduced representation -> inverse
//	                      transform -> delta = data - reconstruction;
//	                      store compressed(rep) + compressed(delta)
//	reconstruction phase: decompress rep -> inverse transform ->
//	                      apply decompressed delta -> data
//
// The reduced representation's numeric payload and the delta are both
// compressed — the rep with the primary codec configuration and the delta
// with a looser bound, following Section V-B's observation that the delta's
// smaller magnitude warrants a looser relative bound (16 vs 8 bits for ZFP,
// 1e-5 vs 1e-3 for SZ).
package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/invariant"
	"lrm/internal/obs"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// obsDeltaEnergy reports ‖delta‖² / ‖data‖² for the most recent
// preconditioned compression — the fraction of signal energy the reduced
// model failed to capture (small is good; the paper's Section V-B knob).
var obsDeltaEnergy = obs.GetFloatGauge("core.delta_energy")

// Options configures one compression run.
type Options struct {
	// Model preconditions the data; nil compresses directly.
	Model reduce.Model
	// DataCodec compresses the data directly (Model == nil) or the reduced
	// representation's numeric payload (Model != nil).
	DataCodec compress.Codec
	// DeltaCodec compresses the delta. nil falls back to DataCodec. The
	// paper uses a looser bound here (Section V-B).
	DeltaCodec compress.Codec
	// Parallel is the execution budget passed to every codec call and to
	// the model's Fit and Reconstruct: the worker-pool size plus the
	// size-aware shard cutover. The zero value selects the defaults
	// (GOMAXPROCS workers, DefaultMinShardBytes); Workers == 1 reproduces
	// the exact serial execution. Archives are byte-identical at every
	// setting.
	Parallel parallel.Config
}

// Result is a compression outcome with the per-part byte accounting the
// experiments report (Fig. 9 plots RepBytes; Fig. 6 uses Ratio).
type Result struct {
	// Archive is the self-describing compressed container.
	Archive []byte
	// OriginalBytes is 8 * number of points.
	OriginalBytes int
	// RepMetaBytes, RepValueBytes are the stored reduced-representation
	// sizes (0 for direct compression).
	RepMetaBytes, RepValueBytes int
	// DeltaBytes is the stored delta stream size (0 for direct).
	DeltaBytes int
}

// Ratio returns the end-to-end compression ratio.
func (r *Result) Ratio() float64 {
	return compress.RatioBytes(r.OriginalBytes, len(r.Archive))
}

// RepBytes returns the total reduced-representation footprint.
func (r *Result) RepBytes() int { return r.RepMetaBytes + r.RepValueBytes }

const magic = "LRM1"

const (
	modeDirect        = 0
	modePreconditoned = 1
)

// CompressCtx runs the pipeline on f. The pipeline's spans (core.compress
// and its reduce/rep_store/delta children, plus whatever the model and the
// codecs open) parent onto the span carried by ctx. ctx carries
// observability only: archives are byte-identical whether or not it holds
// a span.
func CompressCtx(ctx context.Context, f *grid.Field, opts Options) (*Result, error) {
	ctx, sp := trace.Start(ctx, "core.compress")
	defer sp.End()
	res, err := compressCtx(ctx, f, opts)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	sp.SetBytes(int64(res.OriginalBytes), int64(len(res.Archive)))
	return res, nil
}

func compressCtx(ctx context.Context, f *grid.Field, opts Options) (*Result, error) {
	if opts.DataCodec == nil {
		return nil, errors.New("core: DataCodec is required")
	}
	res := &Result{OriginalBytes: 8 * f.Len()}

	var buf bytes.Buffer
	buf.WriteString(magic)

	if opts.Model == nil {
		buf.WriteByte(modeDirect)
		writeString(&buf, compress.CodecFamily(opts.DataCodec.Name()))
		stream, err := opts.DataCodec.Compress(ctx, f, opts.Parallel)
		if err != nil {
			return nil, fmt.Errorf("core: direct compression: %w", err)
		}
		writeBytes(&buf, stream)
		res.Archive = buf.Bytes()
		if invariant.Enabled {
			assertEndToEndBound(f, opts.DataCodec, res.Archive)
		}
		return res, nil
	}

	deltaCodec := opts.DeltaCodec
	if deltaCodec == nil {
		deltaCodec = opts.DataCodec
	}

	// Reduction phase.
	rsCtx, rs := trace.Start(ctx, "core.reduce")
	rep, err := opts.Model.Fit(rsCtx, f, opts.Parallel)
	rs.SetError(err)
	rs.End()
	if err != nil {
		return nil, fmt.Errorf("core: reduce: %w", err)
	}

	// The delta must be computed against the representation AS STORED:
	// if the rep's values are lossily compressed, reconstruction at
	// decompression time sees the perturbed values, so the delta has to be
	// taken against the same perturbed reconstruction or the error would
	// double-count. Compress the rep first, then reconstruct from the
	// decompressed rep to compute the delta.
	ssCtx, ss := trace.Start(ctx, "core.rep_store")
	repValStream, storedRep, err := storeRepValues(ssCtx, rep, opts.DataCodec, opts.Parallel)
	ss.SetError(err)
	ss.End()
	if err != nil {
		return nil, err
	}
	recon, err := storedRep.Reconstruct(ctx, opts.Parallel)
	if err != nil {
		return nil, fmt.Errorf("core: reconstruct stored rep: %w", err)
	}
	dspCtx, dsp := trace.Start(ctx, "core.delta")
	// recon is a temporary: the delta overwrites it rather than cloning f.
	delta := recon
	if err := delta.SubFrom(f); err != nil {
		dsp.SetError(err)
		dsp.End()
		return nil, err
	}
	deltaStream, err := deltaCodec.Compress(dspCtx, delta, opts.Parallel)
	dsp.SetBytes(int64(8*f.Len()), int64(len(deltaStream)))
	dsp.SetError(err)
	dsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: delta compression: %w", err)
	}
	if obs.Enabled() {
		var dd, ff float64
		for _, v := range delta.Data {
			dd += v * v
		}
		for _, v := range f.Data {
			ff += v * v
		}
		if ff > 0 {
			obsDeltaEnergy.Set(dd / ff)
		}
	}
	metaStream, err := compress.FlateBytes(rep.Meta, 6)
	if err != nil {
		return nil, err
	}

	buf.WriteByte(modePreconditoned)
	writeString(&buf, compress.CodecFamily(opts.DataCodec.Name()))
	writeString(&buf, rep.Model)
	buf.WriteByte(byte(len(rep.Dims)))
	for _, d := range rep.Dims {
		writeUvarint(&buf, uint64(d))
	}
	writeUvarint(&buf, uint64(len(rep.Meta))) // pre-flate size for exactness
	writeBytes(&buf, metaStream)
	writeBytes(&buf, repValStream)
	writeString(&buf, compress.CodecFamily(deltaCodec.Name()))
	writeBytes(&buf, deltaStream)

	res.Archive = buf.Bytes()
	res.RepMetaBytes = len(metaStream)
	res.RepValueBytes = len(repValStream)
	res.DeltaBytes = len(deltaStream)
	if invariant.Enabled {
		// The preconditioned pipeline's end-to-end error is exactly the
		// delta codec's error: decompression rebuilds the same stored
		// reconstruction and adds the decompressed delta, so the bound to
		// assert against f is the delta codec's bound on the delta field.
		assertEndToEndBoundEps(f, deltaCodec, delta, res.Archive)
	}
	return res, nil
}

// assertEndToEndBound round-trips a direct archive and asserts the paper's
// |x − x′| ≤ ε guarantee when the codec declares an absolute bound.
// Compiled in only with -tags invariants.
func assertEndToEndBound(f *grid.Field, codec compress.Codec, archive []byte) {
	eb, ok := codec.(compress.ErrorBounded)
	if !ok {
		return
	}
	eps, ok := eb.AbsErrorBound(f)
	if !ok {
		return
	}
	back, err := DecompressCtx(context.TODO(), archive)
	invariant.Assert(err == nil, "core: invariant round trip failed: %v", err)
	invariant.ErrorBound(f.Data, back.Data, boundWithSlack(eps, f), "core: end-to-end "+codec.Name())
}

// assertEndToEndBoundEps is the preconditioned variant: the bound comes
// from the delta codec evaluated on the delta field.
func assertEndToEndBoundEps(f *grid.Field, deltaCodec compress.Codec, delta *grid.Field, archive []byte) {
	eb, ok := deltaCodec.(compress.ErrorBounded)
	if !ok {
		return
	}
	eps, ok := eb.AbsErrorBound(delta)
	if !ok {
		return
	}
	back, err := DecompressCtx(context.TODO(), archive)
	invariant.Assert(err == nil, "core: invariant round trip failed: %v", err)
	invariant.ErrorBound(f.Data, back.Data, boundWithSlack(eps, f), "core: end-to-end precond "+deltaCodec.Name())
}

// boundWithSlack widens eps by a few ulps of the field's magnitude: the
// delta subtraction and final addition are each exactly rounded, so the
// recomposed value can sit a handful of ulps past the codec's bound
// without any stage being wrong.
func boundWithSlack(eps float64, f *grid.Field) float64 {
	maxAbs := 0.0
	for _, v := range f.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return eps + 4*(maxAbs+eps)*0x1p-52
}

// storeRepValues compresses the representation's numeric payload with the
// codec and returns both the stream and the representation as it will look
// after decompression (meta intact, values re-read from the codec).
func storeRepValues(ctx context.Context, rep *reduce.Rep, codec compress.Codec, cfg parallel.Config) (stream []byte, stored *reduce.Rep, err error) {
	cp := *rep
	if len(rep.Values) == 0 {
		return nil, &cp, nil
	}
	vf, err := grid.FromData(rep.Values, len(rep.Values))
	if err != nil {
		return nil, nil, err
	}
	stream, err = codec.Compress(ctx, vf, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rep compression: %w", err)
	}
	back, err := codec.Decompress(ctx, stream, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rep verify: %w", err)
	}
	cp.Values = back.Data
	return stream, &cp, nil
}

// DecompressOpts configures decompression. The zero value matches
// DecompressCtx: default worker pool, fail-fast on any chunk error.
type DecompressOpts struct {
	// Parallel is the execution budget shared by chunk-level concurrency,
	// codec-internal kernels and the model's Reconstruct, mirroring
	// Options.Parallel on the compression side: the chunked container
	// splits Workers among chunks and passes the rest of the config
	// (MinShardBytes) to every codec and reconstruct call unchanged. The
	// zero value selects the defaults; Workers == 1 reproduces the serial
	// execution.
	Parallel parallel.Config
}

// DecompressCtx reverses CompressCtx and CompressChunkedCtx with default
// options, parenting its spans onto ctx. Archives are fully
// self-describing; the container magic selects the format. Failures wrap
// compress.ErrTruncated / compress.ErrCorrupt.
func DecompressCtx(ctx context.Context, archive []byte) (*grid.Field, error) {
	return DecompressWithOptsCtx(ctx, archive, DecompressOpts{})
}

// DecompressWithOptsCtx is DecompressCtx with an explicit worker budget.
func DecompressWithOptsCtx(ctx context.Context, archive []byte, opts DecompressOpts) (*grid.Field, error) {
	ctx, sp := trace.Start(ctx, "core.decompress")
	defer sp.End()
	f, err := decompress(ctx, archive, opts.Parallel)
	if err != nil {
		err = compress.Classify(err)
		sp.SetError(err)
		return nil, err
	}
	sp.SetBytes(int64(len(archive)), int64(8*f.Len()))
	return f, nil
}

// decompress dispatches on the container magic.
func decompress(ctx context.Context, archive []byte, cfg parallel.Config) (*grid.Field, error) {
	if len(archive) >= 4 && string(archive[:4]) == chunkedMagic {
		p, err := chunkedDecode(ctx, archive, cfg, false)
		if err != nil {
			return nil, err
		}
		return p.Field, nil
	}
	return decompressSingle(ctx, archive, cfg)
}

// decompressSingle decodes one LRM1 archive.
func decompressSingle(ctx context.Context, archive []byte, cfg parallel.Config) (*grid.Field, error) {
	r := &reader{buf: archive}
	if string(r.take(4)) != magic {
		if len(archive) < 4 {
			return nil, fmt.Errorf("core: truncated magic: %w", compress.ErrTruncated)
		}
		return nil, fmt.Errorf("core: bad magic: %w", compress.ErrHeader)
	}
	mode := r.byte()
	dataCodecName := r.string()
	if r.err != nil {
		return nil, fmt.Errorf("core: corrupt archive: %w", r.err)
	}
	dataDecode, err := compress.DecoderFor(dataCodecName)
	if err != nil {
		return nil, err
	}

	switch mode {
	case modeDirect:
		stream := r.bytes()
		if r.err != nil {
			return nil, fmt.Errorf("core: corrupt archive: %w", r.err)
		}
		return dataDecode(ctx, stream, cfg)

	case modePreconditoned:
		modelName := r.string()
		rank := int(r.byte())
		if r.err != nil {
			return nil, fmt.Errorf("core: corrupt archive: %w", r.err)
		}
		if rank < 1 || rank > 3 {
			return nil, fmt.Errorf("core: bad rank %d: %w", rank, compress.ErrHeader)
		}
		dims := make([]int, rank)
		total := uint64(1)
		for i := range dims {
			v := r.uvarint()
			if r.err != nil {
				return nil, fmt.Errorf("core: corrupt archive: %w", r.err)
			}
			if v == 0 || v > compress.MaxElements {
				return nil, fmt.Errorf("core: bad dims: %w", compress.ErrHeader)
			}
			dims[i] = int(v)
			total *= v
		}
		if total > compress.MaxElements {
			return nil, fmt.Errorf("core: dims %v claim %d elements (max %d): %w",
				dims, total, compress.MaxElements, compress.ErrHeader)
		}
		metaLen := r.uvarint()
		metaStream := r.bytes()
		repValStream := r.bytes()
		deltaCodecName := r.string()
		deltaStream := r.bytes()
		if r.err != nil {
			return nil, fmt.Errorf("core: corrupt archive: %w", r.err)
		}

		// The claimed pre-flate size drives the inflate output cap; a
		// hostile claim is bounded by what the deflated stream could
		// legitimately expand to (flate tops out near 1032:1).
		if err := compress.CheckedAlloc("core: rep meta", metaLen, 2048*uint64(len(metaStream))+1024, 1); err != nil {
			return nil, err
		}
		meta, err := compress.InflateBytesCap(metaStream, int64(metaLen))
		if err != nil {
			return nil, fmt.Errorf("core: rep meta: %w", err)
		}
		if uint64(len(meta)) != metaLen {
			return nil, fmt.Errorf("core: rep meta length %d != %d: %w", len(meta), metaLen, compress.ErrCorrupt)
		}
		rep := &reduce.Rep{Model: modelName, Dims: dims, Meta: meta}
		if len(repValStream) > 0 {
			vf, err := dataDecode(ctx, repValStream, cfg)
			if err != nil {
				return nil, fmt.Errorf("core: rep values: %w", err)
			}
			rep.Values = vf.Data
		}
		recon, err := rep.Reconstruct(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: reconstruct: %w", compress.Classify(err))
		}
		deltaDecode, err := compress.DecoderFor(deltaCodecName)
		if err != nil {
			return nil, err
		}
		delta, err := deltaDecode(ctx, deltaStream, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: delta: %w", err)
		}
		if err := recon.AddInPlace(delta); err != nil {
			return nil, fmt.Errorf("core: apply delta: %w", compress.Classify(err))
		}
		return recon, nil
	}
	return nil, fmt.Errorf("core: unknown mode %d: %w", mode, compress.ErrCorrupt)
}

// --- binary helpers ---

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	writeUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || r.pos+n > len(r.buf) {
		r.setErr()
		return nil
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) setErr() {
	if r.err == nil {
		// The sentinel itself: every reader-detected failure is the stream
		// ending before the structure it promises.
		r.err = compress.ErrTruncated
	}
}

func (r *reader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.setErr()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.setErr()
		return nil
	}
	return r.take(int(n))
}

func (r *reader) string() string { return string(r.bytes()) }
