package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/obs"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
	"lrm/internal/sim/heat3d"
)

// TestParallelKernelsForkAndStayByteIdentical catches parallel kernels that
// were silently serialized, deterministically. On a 64³ Heat3d field
// (2 MiB, four 512 KiB shards under the default cutover) at Workers: 4,
// every parallel path — the codecs, the chunked container, and the PCA
// and SVD pipelines — must hand at least two tasks to the pool per call.
// parallel.tasks counts them; parallel.task.ns is observed only on the
// pooled path, so it proves the batch really forked. The output must
// match Workers: 1 byte for byte, and Workers: 1 must fork nothing, model
// kernels included. With metrics on, every pipeline layer's stage key must
// be recorded. GOMAXPROCS is raised to 4 so that a kernel that ignored
// the budget for GOMAXPROCS workers would fork even on a 1-CPU runner.
func TestParallelKernelsForkAndStayByteIdentical(t *testing.T) {
	pm := obs.SetEnabled(true)
	obs.Reset()
	procs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		obs.Reset()
		obs.SetEnabled(pm)
	})

	cfg := heat3d.Default(64)
	cfg.Steps = 40
	f := heat3d.Solve(cfg)
	ctx := context.Background()
	// pipeline compresses f through core with model m;
	// decodeArchive is every core archive's decoder.
	pipeline := func(m reduce.Model) func(parallel.Config) ([]byte, error) {
		return func(p parallel.Config) ([]byte, error) {
			res, err := Compress(ctx, f, Options{Model: m, DataCodec: zfp.MustNew(16), Parallel: p})
			if err != nil {
				return nil, err
			}
			return res.Archive, nil
		}
	}
	decodeArchive := func(b []byte, p parallel.Config) (*grid.Field, error) {
		return Decompress(ctx, b, DecompressOpts{Parallel: p})
	}
	cases := []struct {
		name       string
		compress   func(parallel.Config) ([]byte, error)
		decompress func([]byte, parallel.Config) (*grid.Field, error)
	}{
		{"zfp",
			func(p parallel.Config) ([]byte, error) { return zfp.MustNew(16).Compress(ctx, f, p) },
			func(b []byte, p parallel.Config) (*grid.Field, error) { return zfp.MustNew(16).Decompress(ctx, b, p) }},
		{"sz",
			func(p parallel.Config) ([]byte, error) { return sz.MustNew(sz.Abs, 1e-5).Compress(ctx, f, p) },
			func(b []byte, p parallel.Config) (*grid.Field, error) {
				return sz.MustNew(sz.Abs, 1e-5).Decompress(ctx, b, p)
			}},
		{"chunked-zfp",
			func(p parallel.Config) ([]byte, error) {
				res, err := CompressChunked(ctx, f, Options{DataCodec: zfp.MustNew(16), Parallel: p}, 4)
				if err != nil {
					return nil, err
				}
				return res.Archive, nil
			},
			decodeArchive},
		{"pca-zfp", pipeline(reduce.PCA{}), decodeArchive},
		{"svd-zfp", pipeline(reduce.SVD{}), decodeArchive},
	}

	tasks := obs.GetCounter("parallel.tasks")
	pooled := obs.GetHistogram("parallel.task.ns", nil)
	// forked runs fn at Workers: 4 and checks it handed the pool at least
	// two tasks on the pooled path.
	forked := func(name string, fn func(parallel.Config) error) {
		t.Helper()
		t0, p0 := tasks.Value(), pooled.Snapshot().Count
		if err := fn(parallel.Config{Workers: 4}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dt, dp := tasks.Value()-t0, pooled.Snapshot().Count-p0; dt < 2 || dp < 2 {
			t.Errorf("%s at Workers: 4 ran %d pool tasks, %d of them pooled; want at least 2 of each", name, dt, dp)
		}
	}
	// inline runs fn at Workers: 1 and checks that nothing reached the
	// pool's pooled path.
	serial := parallel.Config{Workers: 1}
	inline := func(name string, fn func(parallel.Config) error) {
		t.Helper()
		p0 := pooled.Snapshot().Count
		if err := fn(serial); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dp := pooled.Snapshot().Count - p0; dp != 0 {
			t.Errorf("%s at Workers: 1 ran %d pooled tasks, want 0", name, dp)
		}
	}
	for _, tc := range cases {
		var want []byte
		inline(tc.name+" compress", func(p parallel.Config) (err error) {
			want, err = tc.compress(p)
			return err
		})
		var got []byte
		forked(tc.name+" compress", func(p parallel.Config) (err error) {
			got, err = tc.compress(p)
			return err
		})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Workers: 4 stream differs from Workers: 1 (%d vs %d bytes)", tc.name, len(got), len(want))
		}

		var wantField *grid.Field
		inline(tc.name+" decompress", func(p parallel.Config) (err error) {
			wantField, err = tc.decompress(want, p)
			return err
		})
		var gotField *grid.Field
		forked(tc.name+" decompress", func(p parallel.Config) (err error) {
			gotField, err = tc.decompress(want, p)
			return err
		})
		if !bytes.Equal(gotField.Bytes(), wantField.Bytes()) {
			t.Errorf("%s: Workers: 4 decode differs from Workers: 1", tc.name)
		}
	}
	// DecompressSeries decodes on the caller's budget, not the default one:
	// a 3-frame zfp series runs inline at Workers: 1 and forks at
	// Workers: 4, with the same frames at both.
	frames := []*grid.Field{f, f.Clone(), f.Clone()}
	for i := range frames[1].Data {
		frames[1].Data[i] *= 1.01
		frames[2].Data[i] *= 1.02
	}
	series, err := CompressSeries(ctx, frames, Options{DataCodec: zfp.MustNew(16), Parallel: serial})
	if err != nil {
		t.Fatalf("series: %v", err)
	}
	var wantFrames, gotFrames []*grid.Field
	inline("series decompress", func(p parallel.Config) (err error) {
		wantFrames, err = DecompressSeries(ctx, series.Archive, DecompressOpts{Parallel: p})
		return err
	})
	forked("series decompress", func(p parallel.Config) (err error) {
		gotFrames, err = DecompressSeries(ctx, series.Archive, DecompressOpts{Parallel: p})
		return err
	})
	for i := range wantFrames {
		if !bytes.Equal(gotFrames[i].Bytes(), wantFrames[i].Bytes()) {
			t.Errorf("series frame %d: Workers: 4 decode differs from Workers: 1", i)
		}
	}

	// Two workers over two chunks leave each chunk's pipeline one worker:
	// the chunk loop's two tasks are the only pooled ones, so no chunk's
	// PCA forks on its own.
	chunkedPCA := Options{Model: reduce.PCA{}, DataCodec: zfp.MustNew(16), Parallel: parallel.Config{Workers: 2}}
	p0 := pooled.Snapshot().Count
	res, err := CompressChunked(ctx, f, chunkedPCA, 2)
	if err != nil {
		t.Fatalf("chunked pca: %v", err)
	}
	if dp := pooled.Snapshot().Count - p0; dp != 2 {
		t.Errorf("chunked pca at Workers: 2 over 2 chunks ran %d pooled tasks, want exactly the 2 chunks", dp)
	}
	p0 = pooled.Snapshot().Count
	if _, err := Decompress(ctx, res.Archive, DecompressOpts{Parallel: chunkedPCA.Parallel}); err != nil {
		t.Fatalf("chunked pca decode: %v", err)
	}
	if dp := pooled.Snapshot().Count - p0; dp != 2 {
		t.Errorf("chunked pca decode at Workers: 2 over 2 chunks ran %d pooled tasks, want exactly the 2 chunks", dp)
	}

	if _, err := fpc.MustNew(12).Compress(ctx, f, serial); err != nil {
		t.Fatalf("fpc: %v", err)
	}

	snap := obs.Snapshot()
	for _, stage := range []string{
		"sz.quantize", "sz.huffman", "sz.flate",
		"zfp.plane_code", "zfp.transform", "fpc.compress",
		"core.chunk_compress", "core.chunk_decode", "parallel.worker_busy",
		"reduce.covariance", "reduce.eigen", "reduce.svd", "reduce.reconstruct",
	} {
		if snap.Counters["stage."+stage+".calls"] == 0 {
			t.Errorf("stage %s recorded no calls", stage)
		}
	}
}
