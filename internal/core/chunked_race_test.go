package core

import (
	"context"
	"sync"
	"testing"

	"lrm/internal/compress/fpc"
	"lrm/internal/compress/zfp"
	"lrm/internal/reduce"
	"lrm/internal/stats"
)

// Race-detector stress tests for the chunked pipeline: chunk workers run
// one goroutine per chunk, and nothing in the pipeline may share mutable
// state, so whole compress/decompress cycles must also be safe to run
// concurrently against a shared read-only field.

func TestChunkedConcurrentPipelines(t *testing.T) {
	f := heatField(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			opts := Options{Model: reduce.OneBase{}, DataCodec: zfp.MustNew(24), DeltaCodec: zfp.MustNew(16)}
			if id%2 == 1 {
				opts = Options{DataCodec: fpc.MustNew(12)}
			}
			chunks := 2 + id%5
			res, err := CompressChunkedCtx(context.Background(), f, opts, chunks)
			if err != nil {
				t.Errorf("worker %d: compress: %v", id, err)
				return
			}
			dec, err := DecompressCtx(context.Background(), res.Archive)
			if err != nil {
				t.Errorf("worker %d: decompress: %v", id, err)
				return
			}
			if e := stats.MaxAbsError(f.Data, dec.Data); e > 2e-2 {
				t.Errorf("worker %d: error %v", id, e)
			}
		}(w)
	}
	wg.Wait()
}

func TestChunkedConcurrentDecompressSharedArchive(t *testing.T) {
	f := heatField(t)
	res, err := CompressChunkedCtx(context.Background(), f, Options{Model: reduce.PCA{}, DataCodec: zfp.MustNew(24), DeltaCodec: zfp.MustNew(16)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 10
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dec, err := DecompressCtx(context.Background(), res.Archive)
			if err != nil {
				t.Errorf("reader %d: %v", id, err)
				return
			}
			if e := stats.MaxAbsError(f.Data, dec.Data); e > 2e-2 {
				t.Errorf("reader %d: error %v", id, e)
			}
		}(w)
	}
	wg.Wait()
}
