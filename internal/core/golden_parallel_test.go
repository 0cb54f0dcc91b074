package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// TestGoldenParallelArchivesByteIdentical is the golden gate for the worker
// knob: the archive produced with Workers=8 must be byte-for-byte the one
// produced with Workers=1 (exact serial execution), for every codec family,
// direct and preconditioned, single-shot and chunked. Parallelism may only
// change latency — never a single bit of the format.
func TestGoldenParallelArchivesByteIdentical(t *testing.T) {
	f := heatField(t)
	codecs := []compress.Codec{
		zfp.MustNew(24),
		sz.MustNew(sz.Abs, 1e-5),
		fpc.MustNew(12),
	}
	models := []reduce.Model{nil, reduce.PCA{}}
	for _, codec := range codecs {
		for _, m := range models {
			name := codec.Name() + "/" + modelName(m)
			serialOpts := Options{Model: m, DataCodec: codec, DeltaCodec: codec,
				Parallel: parallel.Config{Workers: 1}}
			parOpts := serialOpts
			parOpts.Parallel = parallel.Config{Workers: 8}

			serial, err := CompressCtx(context.Background(), f, serialOpts)
			if err != nil {
				t.Fatalf("%s: serial compress: %v", name, err)
			}
			par, err := CompressCtx(context.Background(), f, parOpts)
			if err != nil {
				t.Fatalf("%s: parallel compress: %v", name, err)
			}
			if !bytes.Equal(serial.Archive, par.Archive) {
				t.Fatalf("%s: Workers=8 archive differs from Workers=1 (%d vs %d bytes)",
					name, len(par.Archive), len(serial.Archive))
			}

			// Both decompress paths must agree bit-for-bit too.
			dec1, err := DecompressCtx(context.Background(), serial.Archive)
			if err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			dec8, err := DecompressCtx(context.Background(), par.Archive)
			if err != nil {
				t.Fatalf("%s: decompress parallel archive: %v", name, err)
			}
			if !bytes.Equal(floatBytes(dec1.Data), floatBytes(dec8.Data)) {
				t.Fatalf("%s: decompressed fields differ", name)
			}

			serialChunked, err := CompressChunkedCtx(context.Background(), f, serialOpts, 4)
			if err != nil {
				t.Fatalf("%s: serial chunked: %v", name, err)
			}
			parChunked, err := CompressChunkedCtx(context.Background(), f, parOpts, 4)
			if err != nil {
				t.Fatalf("%s: parallel chunked: %v", name, err)
			}
			if !bytes.Equal(serialChunked.Archive, parChunked.Archive) {
				t.Fatalf("%s: chunked Workers=8 archive differs from Workers=1", name)
			}
		}
	}
}

// TestGoldenParallelWorkerSweep compresses at several worker counts and
// checks all streams match the serial one, so no particular shard count is
// special-cased.
func TestGoldenParallelWorkerSweep(t *testing.T) {
	f := heatField(t)
	codec := zfp.MustNew(16)
	var want []byte
	for _, w := range []int{1, 2, 3, 5, 16} {
		res, err := CompressCtx(context.Background(), f, Options{DataCodec: codec, Parallel: parallel.Config{Workers: w}})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = res.Archive
			continue
		}
		if !bytes.Equal(res.Archive, want) {
			t.Fatalf("workers=%d archive differs from workers=1", w)
		}
	}
}

func floatBytes(data []float64) []byte {
	out := make([]byte, 0, 8*len(data))
	for _, v := range data {
		u := math.Float64bits(v)
		out = append(out,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return out
}
