package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/mpi"
	"lrm/internal/obs"
	"lrm/internal/obs/quality"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// Hoisted chunk-level counters (see internal/obs): decode failures are
// counted per chunk so degraded-mode recovery is visible in the snapshot.
var (
	obsChunksDecoded = obs.GetCounter("core.chunks_decoded")
	obsChunkErrors   = obs.GetCounter("core.chunk_errors")
)

// chunkedMagic marks the multi-chunk container format.
const chunkedMagic = "LRMC"

// CompressChunkedCtx splits the field into `chunks` slabs along the leading
// dimension and compresses them concurrently on the shared bounded worker
// pool — the N-to-N per-rank compression pattern of the paper's Table IV
// runs, where every MPI rank compresses its own subdomain independently.
// At most Options.Parallel workers (default GOMAXPROCS) run at once, so
// chunks >> NumCPU no longer oversubscribes the scheduler the way the old
// goroutine-per-chunk fan-out did; the pool is divided between chunk-level
// concurrency and each chunk's codec-internal workers, which is free to do
// because codec output is byte-identical at any worker count.
//
// Each chunk is a complete self-describing archive protected by a CRC32,
// so a corrupted chunk is detected and reported without touching its
// siblings. Preconditioning applies per chunk: one-base on a chunk is the
// paper's multi-base picture, one local base per sub-domain.
//
// Each chunk's core.chunk_compress span parents onto the container span
// that the pool task closures capture, and the chunk's codec shards nest
// under the chunk in turn.
//
// ctx is also consulted at every chunk boundary: once canceled, no further
// chunks are scheduled and the call returns an error wrapping
// compress.ErrCanceled plus the context's own sentinel. Chunks already in
// flight finish, so cancellation never changes the bytes of a completed
// archive — an uncanceled run is byte-identical at any worker count.
func CompressChunkedCtx(ctx context.Context, f *grid.Field, opts Options, chunks int) (*Result, error) {
	ctx, sp := trace.Start(ctx, "core.compress_chunked")
	defer sp.End()
	if opts.DataCodec == nil {
		err := errors.New("core: DataCodec is required")
		sp.SetError(err)
		return nil, err
	}
	if chunks < 1 || chunks > f.Dims[0] {
		err := fmt.Errorf("core: %d chunks cannot split leading extent %d", chunks, f.Dims[0])
		sp.SetError(err)
		return nil, err
	}

	slab := 1
	for _, d := range f.Dims[1:] {
		slab *= d
	}

	// Divide the pool: when chunk-level concurrency already saturates it,
	// each chunk's codec runs serially; leftover capacity goes to the
	// codecs' internal kernels. Only Workers is divided; the rest of the
	// caller's config reaches every chunk unchanged.
	workers := opts.Parallel.Resolve()
	inner := opts
	inner.Parallel.Workers = innerWorkers(workers, chunks)

	type chunkOut struct {
		res *Result
		err error
	}
	outs := make([]chunkOut, chunks)
	// The codec family label ("sz", not "sz(abs=1e-3)") joins stage/chunk
	// on the workers' pprof labels, so the continuous profiler can split
	// CPU by codec as request-level codec choice becomes dynamic; parameters
	// would explode label cardinality.
	codecFam := compress.CodecFamily(opts.DataCodec.Name())
	parallel.For(workers, chunks, func(c int) {
		// Cancellation is checked once per chunk, here at the boundary: a
		// canceled request (client disconnect, deadline) stops scheduling new
		// chunk work instead of compressing every remaining slab at full CPU.
		// Chunks already in flight run to completion, so an uncanceled run is
		// byte-identical to the serial execution.
		if err := ctx.Err(); err != nil {
			outs[c] = chunkOut{err: err}
			return
		}
		ctx, restore := trace.WithLabels(ctx, "stage", "chunk_compress", "codec", codecFam, "chunk", strconv.Itoa(c))
		defer restore()
		cctx, csp := trace.Start(ctx, "core.chunk_compress")
		defer csp.End()
		lo, hi := mpi.Slab1D(f.Dims[0], chunks, c)
		dims := append([]int{hi - lo}, f.Dims[1:]...)
		sub, err := grid.FromData(f.Data[lo*slab:hi*slab], dims...)
		if err != nil {
			csp.SetError(err)
			outs[c] = chunkOut{err: err}
			return
		}
		res, err := CompressCtx(cctx, sub, inner)
		csp.SetError(err)
		outs[c] = chunkOut{res: res, err: err}
		if res != nil {
			csp.SetBytes(int64(8*sub.Len()), int64(len(res.Archive)))
		}
		if err == nil && obs.Enabled() {
			bound := math.NaN()
			if eb, ok := opts.DataCodec.(compress.ErrorBounded); ok {
				if b, ok := eb.AbsErrorBound(sub); ok {
					bound = b
				}
			}
			quality.Observe(quality.Event{
				Source:          "core.chunk_compress",
				Codec:           opts.DataCodec.Name(),
				Chunk:           c,
				Dims:            sub.Dims,
				OriginalBytes:   8 * sub.Len(),
				CompressedBytes: len(res.Archive),
				Bound:           bound,
				Raw:             sub.Bytes,
				Original:        sub.Data,
				Reconstruct: func() ([]float64, error) {
					g, derr := decompressSingle(cctx, res.Archive, parallel.Config{Workers: 1})
					if derr != nil {
						return nil, derr
					}
					return g.Data, nil
				},
			})
		}
	})

	if err := ctx.Err(); err != nil {
		werr := fmt.Errorf("core: chunked compress: %w: %w", compress.ErrCanceled, err)
		sp.SetError(werr)
		return nil, werr
	}

	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, uint64(chunks))
	buf.WriteByte(byte(len(f.Dims)))
	for _, d := range f.Dims {
		writeUvarint(&buf, uint64(d))
	}
	total := &Result{OriginalBytes: 8 * f.Len()}
	for c, o := range outs {
		if o.err != nil {
			err := fmt.Errorf("core: chunk %d: %w", c, o.err)
			sp.SetError(err)
			return nil, err
		}
		writeUvarint(&buf, uint64(chunkCRC(c, o.res.Archive)))
		writeBytes(&buf, o.res.Archive)
		total.RepMetaBytes += o.res.RepMetaBytes
		total.RepValueBytes += o.res.RepValueBytes
		total.DeltaBytes += o.res.DeltaBytes
	}
	total.Archive = buf.Bytes()
	sp.SetBytes(int64(total.OriginalBytes), int64(len(total.Archive)))
	sp.AddItems(int64(chunks))
	return total, nil
}

// ChunkCRCs frames an LRMC container — header dims plus every chunk
// record — and returns the index-seeded CRC32 of each record's actual
// payload bytes (see chunkCRC), recomputed rather than read from the
// record, without decoding anything. ok reports whether the bytes are a
// well-framed LRMC container with no trailing garbage. Because the CRCs
// cover the payloads themselves, the returned (dims, crcs) pair is a
// trustworthy content address for the container: any payload flip, chunk
// reorder, or splice changes it, even when the mutation also rewrites the
// stored CRC fields. internal/serve keys its decompressed-response cache
// on it.
func ChunkCRCs(archive []byte) (dims []int, crcs []uint32, ok bool) {
	r := &reader{buf: archive}
	if string(r.take(4)) != chunkedMagic {
		return nil, nil, false
	}
	chunks := int(r.uvarint())
	rank := int(r.byte())
	// Every record costs at least two bytes (CRC uvarint + length uvarint),
	// so a chunk count beyond the archive length is a varint bomb: refuse it
	// before it sizes the crcs allocation.
	if r.err != nil || rank < 1 || rank > 3 || chunks < 1 || chunks > len(archive) {
		return nil, nil, false
	}
	dims = make([]int, rank)
	for i := range dims {
		v := r.uvarint()
		if r.err != nil || v == 0 || v > compress.MaxElements {
			return nil, nil, false
		}
		dims[i] = int(v)
	}
	crcs = make([]uint32, chunks)
	for c := 0; c < chunks; c++ {
		r.uvarint() // stored CRC: framing only, deliberately not trusted
		payload := r.bytes()
		if r.err != nil {
			return nil, nil, false
		}
		crcs[c] = chunkCRC(c, payload)
	}
	if r.pos != len(r.buf) {
		return nil, nil, false
	}
	return dims, crcs, true
}

// chunkCRC is the per-record checksum: CRC32 (IEEE) over the chunk's index
// as a little-endian uint32, then its archive bytes. Seeding with the index
// makes duplicated, reordered, or spliced records fail validation — a plain
// content CRC would accept chunk 3's intact record sitting at slot 1 and
// silently scramble the field.
func chunkCRC(idx int, archive []byte) uint32 {
	var le [4]byte
	binary.LittleEndian.PutUint32(le[:], uint32(idx))
	return crc32.Update(crc32.ChecksumIEEE(le[:]), crc32.IEEETable, archive)
}

// innerWorkers is each chunk's codec budget when a pool of workers runs
// chunks at once: chunk-level concurrency first, leftover capacity to each
// chunk's codec-internal kernels.
func innerWorkers(workers, chunks int) int {
	return max(1, workers/min(workers, chunks))
}

// chunkedDecode parses and decodes an LRMC archive on the budget cfg. In
// strict mode (degraded == false) the first failure aborts; in degraded
// mode every chunk is attempted, failures are reported per chunk, and the
// surviving chunks' regions are returned (failed regions stay zero). A container header too damaged to frame any chunk fails outright
// in both modes, as does a canceled ctx — cancellation is checked at every
// chunk boundary and reported as compress.ErrCanceled, never as a chunk
// failure.
func chunkedDecode(ctx context.Context, archive []byte, cfg parallel.Config, degraded bool) (*Partial, error) {
	ctx, sp := trace.Start(ctx, "core.decompress_chunked")
	defer sp.End()
	r := &reader{buf: archive}
	if string(r.take(4)) != chunkedMagic {
		if len(archive) < 4 {
			return nil, fmt.Errorf("core: truncated chunked magic: %w", compress.ErrTruncated)
		}
		return nil, fmt.Errorf("core: bad chunked magic: %w", compress.ErrHeader)
	}
	chunks := int(r.uvarint())
	rank := int(r.byte())
	if r.err != nil {
		return nil, fmt.Errorf("core: corrupt chunked header: %w", r.err)
	}
	if rank < 1 || rank > 3 || chunks < 1 {
		return nil, fmt.Errorf("core: implausible chunked header (rank %d, chunks %d): %w",
			rank, chunks, compress.ErrHeader)
	}
	dims := make([]int, rank)
	total := uint64(1)
	for i := range dims {
		v := r.uvarint()
		if r.err != nil {
			return nil, fmt.Errorf("core: corrupt chunked header: %w", r.err)
		}
		if v == 0 || v > compress.MaxElements {
			return nil, fmt.Errorf("core: bad chunked dims: %w", compress.ErrHeader)
		}
		dims[i] = int(v)
		total *= v
	}
	// Bound the product, not just each extent: dims like {2^28, 2^28, 2^28}
	// pass the per-extent check but would demand an absurd allocation (or,
	// without grid's overflow guard, wrap int and panic downstream).
	if total > compress.MaxElements {
		return nil, fmt.Errorf("core: chunked dims %v claim %d elements (max %d): %w",
			dims, total, compress.MaxElements, compress.ErrHeader)
	}
	if chunks > dims[0] {
		return nil, fmt.Errorf("core: %d chunks exceed leading extent %d: %w",
			chunks, dims[0], compress.ErrHeader)
	}

	// Parse the chunk records. A CRC mismatch poisons only its chunk, but a
	// framing failure (truncated or unparseable record) poisons every chunk
	// from that point on: record boundaries are no longer trustable.
	type record struct {
		archive []byte
		err     error
	}
	recs := make([]record, chunks)
	trailing := 0
	framingOK := true
	for c := 0; c < chunks && framingOK; c++ {
		wantCRC := uint32(r.uvarint())
		chunkArchive := r.bytes()
		if r.err != nil {
			err := fmt.Errorf("core: truncated chunk %d: %w", c, r.err)
			if !degraded {
				return nil, err
			}
			for i := c; i < chunks; i++ {
				recs[i] = record{err: err}
			}
			framingOK = false
			break
		}
		if chunkCRC(c, chunkArchive) != wantCRC {
			err := fmt.Errorf("core: chunk %d failed CRC validation: %w", c, compress.ErrCorrupt)
			if !degraded {
				return nil, err
			}
			recs[c] = record{err: err}
			continue
		}
		recs[c] = record{archive: chunkArchive}
	}
	if framingOK && r.pos != len(r.buf) {
		trailing = len(r.buf) - r.pos
		if !degraded {
			return nil, fmt.Errorf("core: %d trailing bytes after chunks: %w", trailing, compress.ErrCorrupt)
		}
	}

	// The output allocation is bounded by what the archive could
	// legitimately back: SZ's worst double-compressed expansion stays under
	// 2^16 elements per archive byte by a wide margin.
	if err := compress.CheckedAlloc("core: chunked field", total, uint64(len(archive))<<16, 8); err != nil {
		return nil, err
	}
	out, err := grid.NewChecked(dims...)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, compress.ErrHeader)
	}
	slab := 1
	for _, d := range dims[1:] {
		slab *= d
	}

	// Divide the budget like CompressChunkedCtx.
	workers := cfg.Resolve()
	inner := cfg
	inner.Workers = innerWorkers(workers, chunks)
	errs := make([]error, chunks)
	parallel.For(workers, chunks, func(c int) {
		// Same chunk-boundary cancellation contract as CompressChunkedCtx: a
		// canceled request stops scheduling chunk decodes instead of running
		// every remaining record at full CPU.
		if err := ctx.Err(); err != nil {
			errs[c] = err
			return
		}
		ctx, restore := trace.WithLabels(ctx, "stage", "chunk_decode", "chunk", strconv.Itoa(c))
		defer restore()
		cctx, csp := trace.Start(ctx, "core.chunk_decode")
		defer csp.End()
		if recs[c].err != nil {
			csp.SetError(recs[c].err)
			errs[c] = recs[c].err
			return
		}
		// Chunk records are always single archives (CompressChunkedCtx stores
		// CompressCtx output); refusing nested containers here keeps a hostile
		// archive from driving recursive header-sized allocations.
		f, err := decompressSingle(cctx, recs[c].archive, inner)
		if err != nil {
			csp.SetError(err)
			errs[c] = err
			return
		}
		lo, hi := mpi.Slab1D(dims[0], chunks, c)
		if f.Dims[0] != hi-lo || f.Len() != (hi-lo)*slab {
			errs[c] = fmt.Errorf("chunk shape %v does not fit slab [%d,%d): %w",
				f.Dims, lo, hi, compress.ErrCorrupt)
			csp.SetError(errs[c])
			return
		}
		copy(out.Data[lo*slab:hi*slab], f.Data)
		csp.SetBytes(int64(len(recs[c].archive)), int64(8*f.Len()))
	})

	// Cancellation outranks both modes: a canceled decode says nothing about
	// the archive, so returning a half-zeroed Partial (degraded) or blaming a
	// chunk (strict) would misreport client disconnects as data loss.
	if err := ctx.Err(); err != nil {
		werr := fmt.Errorf("core: chunked decode: %w: %w", compress.ErrCanceled, err)
		sp.SetError(werr)
		return nil, werr
	}

	if sp != nil {
		sp.AddItems(int64(chunks))
		sp.SetBytes(int64(len(archive)), int64(8*out.Len()))
		failed := int64(0)
		for _, err := range errs {
			if err != nil {
				failed++
			}
		}
		obsChunksDecoded.Add(int64(chunks) - failed)
		obsChunkErrors.Add(failed)
	}

	p := &Partial{Field: out, Chunks: chunks, Trailing: trailing}
	for c, err := range errs {
		if err == nil {
			continue
		}
		if !degraded {
			werr := fmt.Errorf("core: chunk %d: %w", c, err)
			sp.SetError(werr)
			return nil, werr
		}
		lo, hi := mpi.Slab1D(dims[0], chunks, c)
		p.Errors = append(p.Errors, ChunkError{Chunk: c, Lo: lo, Hi: hi, Err: compress.Classify(err)})
	}
	return p, nil
}
