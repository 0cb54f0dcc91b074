package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"lrm/internal/compress"
	"lrm/internal/core"
	"lrm/internal/grid"
	"lrm/internal/obs/quality"
	"lrm/internal/obs/trace"
	"lrm/internal/parallel"
)

// streamChunkBytes is the flush granularity for response bodies: large
// archives and fields go out in segments so a reader sees bytes as soon as
// the first segment is ready, not after the last.
const streamChunkBytes = 256 << 10

// requestCtx derives the pipeline context for an admitted request: the
// request's own context (canceled on client disconnect) plus the
// configured processing deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// readBody drains the request body under the configured cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, ep *epMetrics) ([]byte, *httpError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, bodyError(r, ep, err)
	}
	ep.bytesIn.Add(int64(len(body)))
	return body, nil
}

// bodyError maps a failed body read: the cap is 413, a mid-upload
// disconnect is 499 (there is nobody left to answer), anything else 400.
func bodyError(r *http.Request, ep *epMetrics, err error) *httpError {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)}
	}
	if r.Context().Err() != nil {
		ep.canceled.Inc()
		return &httpError{status: 499, msg: "client went away"}
	}
	return badRequest("reading body: %v", err)
}

// bodyReader counts the bytes read from a request body and keeps its
// read error, so a streaming consumer's failure can be told apart from
// the body's.
type bodyReader struct {
	r   io.Reader
	n   int64
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// fail writes an httpError. Status 499 (client disconnected, nginx's
// convention) writes nothing: the peer is gone and net/http would just
// discard it.
func fail(w http.ResponseWriter, herr *httpError) {
	if herr.status == 499 {
		return
	}
	if herr.status == http.StatusServiceUnavailable || herr.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, herr.msg, herr.status)
}

// pipelineError maps a core pipeline failure onto the response contract:
//
//	canceled ctx        -> 499 when the client vanished, 503 on deadline
//	taxonomy (corrupt,
//	truncated, header)  -> 422: the archive is undecodable, a client fault
//	anything else       -> 400: bad parameters (chunks vs dims, codec
//	                       constraints); the pipeline has no server-fault
//	                       failure mode on validated input
//
// Malformed input therefore can never produce a 5xx.
func pipelineError(r *http.Request, ep *epMetrics, err error) *httpError {
	switch {
	case errors.Is(err, compress.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if r.Context().Err() != nil {
			ep.canceled.Inc()
			return &httpError{status: 499, msg: "client went away"}
		}
		return &httpError{status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("processing deadline exceeded: %v", err)}
	case errors.Is(err, compress.ErrCorrupt), errors.Is(err, compress.ErrTruncated):
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return badRequest("%v", err)
}

// writeStream writes b progressively in streamChunkBytes segments,
// flushing between them, so a large response streams instead of sitting in
// server buffers until complete.
func writeStream(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	for len(b) > 0 {
		n := min(len(b), streamChunkBytes)
		if _, err := w.Write(b[:n]); err != nil {
			return
		}
		b = b[n:]
		if f, ok := w.(http.Flusher); ok && len(b) > 0 {
			f.Flush()
		}
	}
}

// handleCompress is POST /v1/compress: raw little-endian float64 field in,
// LRMC archive out. Shape comes from dims; codec and error bound from the
// negotiation parameters; ?chunks= selects the container split (default
// Config.DefaultChunks, clamped to the leading extent).
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	ctx, sp := trace.Start(r.Context(), "serve.compress")
	defer sp.End()
	ctx, cancel := s.requestCtx(r.WithContext(ctx))
	defer cancel()

	codec, herr := negotiateCodec(r)
	if herr == nil {
		var dims []int
		if dims, herr = negotiateDims(r); herr == nil {
			var chunks int
			if chunks, herr = intParam(r, "chunks", 0); herr == nil {
				herr = s.compress(ctx, w, r, codec, dims, chunks)
			}
		}
	}
	if herr != nil {
		sp.SetError(herr)
		fail(w, herr)
	}
}

func (s *Server) compress(ctx context.Context, w http.ResponseWriter, r *http.Request,
	codec compress.Codec, dims []int, chunks int) *httpError {
	// The body streams straight into the field: one pass, no copy of the
	// raw bytes, and nothing allocated beyond what has arrived.
	body := &bodyReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	f, err := grid.ReadField(body, dims...)
	if body.err != nil {
		return bodyError(r, s.epCompress, body.err)
	}
	s.epCompress.bytesIn.Add(body.n)
	if err != nil {
		return badRequest("%v", err)
	}
	if chunks == 0 {
		chunks = min(s.cfg.DefaultChunks, f.Dims[0])
	}
	opts := core.Options{
		DataCodec: codec,
		Parallel:  parallel.Config{Workers: s.cfg.Workers},
	}
	res, err := core.CompressChunked(ctx, f, opts, chunks)
	if err != nil {
		return pipelineError(r, s.epCompress, err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Lrm-Codec", codec.Name())
	w.Header().Set("X-Lrm-Chunks", strconv.Itoa(chunks))
	w.Header().Set("X-Lrm-Original-Bytes", strconv.Itoa(res.OriginalBytes))
	w.Header().Set("X-Lrm-Ratio", strconv.FormatFloat(res.Ratio(), 'g', 6, 64))
	writeStream(w, res.Archive)
	quality.Observe(quality.Event{
		Source:          "serve.compress",
		Codec:           codec.Name(),
		Chunk:           -1,
		Dims:            f.Dims,
		OriginalBytes:   res.OriginalBytes,
		CompressedBytes: len(res.Archive),
		Bound:           absBound(codec, f),
		Original:        f.Data,
		Reconstruct: func() ([]float64, error) {
			g, err := core.Decompress(ctx, res.Archive,
				core.DecompressOpts{Parallel: parallel.Config{Workers: s.cfg.Workers}})
			if err != nil {
				return nil, err
			}
			return g.Data, nil
		},
	})
	return nil
}

// absBound extracts the codec's requested absolute error bound for f, or
// NaN when the codec's guarantee is not expressible as one.
func absBound(codec compress.Codec, f *grid.Field) float64 {
	if eb, ok := codec.(compress.ErrorBounded); ok {
		if b, ok := eb.AbsErrorBound(f); ok {
			return b
		}
	}
	return math.NaN()
}

// handleDecompress is POST /v1/decompress: archive in (LRMC or LRM1), raw
// little-endian float64 field out, shape in the X-Lrm-Dims response
// header. ?partial=1 selects degraded-mode decode for chunked containers:
// failed chunks zero their region and are reported in X-Lrm-Chunk-Errors /
// X-Lrm-Failed-Chunks instead of failing the request.
//
// Complete decodes of chunked containers are cached: the key is the
// container's index-seeded chunk CRCs recomputed over the payload bytes (a
// framing scan plus a CRC pass, no decode), so re-serving a hot archive
// costs a checksum and a map hit instead of a pipeline run.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	ctx, sp := trace.Start(r.Context(), "serve.decompress")
	defer sp.End()
	ctx, cancel := s.requestCtx(r.WithContext(ctx))
	defer cancel()

	if herr := s.decompress(ctx, w, r); herr != nil {
		sp.SetError(herr)
		fail(w, herr)
	}
}

func (s *Server) decompress(ctx context.Context, w http.ResponseWriter, r *http.Request) *httpError {
	partial := boolParam(r, "partial")
	archive, herr := s.readBody(w, r, s.epDecompress)
	if herr != nil {
		return herr
	}

	key, chunks, cacheable := cacheKey(archive)
	// Degraded mode refuses LRM1 archives, so only a chunked container's
	// entry may answer a ?partial=1 request.
	if cacheable && s.cache != nil && (!partial || chunks > 0) {
		if e, ok := s.cache.get(key); ok {
			writeField(w, e.dims, e.payload, "hit", partial, nil, chunks)
			return nil
		}
	}

	opts := core.DecompressOpts{Parallel: parallel.Config{Workers: s.cfg.Workers}}
	var report core.Partial
	if partial {
		opts.Partial = &report
	}
	field, err := core.Decompress(ctx, archive, opts)
	if err != nil {
		return pipelineError(r, s.epDecompress, err)
	}
	if !report.Complete() {
		cacheable = false
	}

	payload := field.Bytes()
	if cacheable && s.cache != nil {
		s.cache.put(key, field.Dims, payload)
	}
	writeField(w, field.Dims, payload, "miss", partial, report.Errors, report.Chunks)
	// Decompression has no reference data to grade against; the event
	// still carries the expansion ratio and (when sampled) the byte
	// features of the reconstructed field.
	quality.Observe(quality.Event{
		Source:          "serve.decompress",
		Chunk:           -1,
		Dims:            field.Dims,
		OriginalBytes:   len(payload),
		CompressedBytes: len(archive),
		Bound:           math.NaN(),
		Original:        field.Data,
	})
	return nil
}

// writeField writes a decompressed field response: shape and cache
// disposition in headers, raw bytes streamed in the body.
func writeField(w http.ResponseWriter, dims []int, payload []byte, cache string,
	partial bool, chunkErrs []core.ChunkError, chunks int) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Lrm-Dims", dimsString(dims))
	w.Header().Set("X-Lrm-Cache", cache)
	if partial {
		w.Header().Set("X-Lrm-Chunks", strconv.Itoa(chunks))
		w.Header().Set("X-Lrm-Chunk-Errors", strconv.Itoa(len(chunkErrs)))
		if len(chunkErrs) > 0 {
			failed := make([]string, len(chunkErrs))
			for i, ce := range chunkErrs {
				failed[i] = strconv.Itoa(ce.Chunk)
			}
			w.Header().Set("X-Lrm-Failed-Chunks", strings.Join(failed, ","))
		}
	}
	writeStream(w, payload)
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// handleCodecs is GET /v1/codecs: a plain-text capability listing so a
// client can discover the negotiation surface without reading the docs.
func handleCodecs(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, ""+
		"zfp    precision=P (default 16) | accuracy=TOL | rate=BITS\n"+
		"sz     mode=abs|rel|pwrel (default abs), bound=EB (default 1e-5)\n"+
		"fpc    level=L in [1,24] (default 12; lossless)\n"+
		"flate  level=L in [1,9] (default 6; lossless)\n")
}
