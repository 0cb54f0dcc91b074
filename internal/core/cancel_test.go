package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/sim/heat3d"
)

// cancelProbe is a codec wrapper that counts Compress calls and fires a
// caller-supplied hook after each one — the seam the cancellation tests use
// to cancel a context from inside the chunk loop deterministically.
type cancelProbe struct {
	inner compress.Codec
	mu    sync.Mutex
	calls int
	after func(call int)
}

func (p *cancelProbe) Name() string   { return "cancelprobe" }
func (p *cancelProbe) Lossless() bool { return p.inner.Lossless() }

func (p *cancelProbe) Compress(ctx context.Context, f *grid.Field, cfg parallel.Config) ([]byte, error) {
	b, err := p.inner.Compress(ctx, f, cfg)
	p.mu.Lock()
	p.calls++
	n := p.calls
	hook := p.after
	p.mu.Unlock()
	if hook != nil {
		hook(n)
	}
	return b, err
}

func (p *cancelProbe) Decompress(ctx context.Context, b []byte, cfg parallel.Config) (*grid.Field, error) {
	return p.inner.Decompress(ctx, b, cfg)
}

func (p *cancelProbe) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// probeDecode is the registered decode counterpart: the "cancelprobe"
// family decodes the wrapped flate stream, counting calls and firing the
// hook, so chunk decodes can cancel mid-container too.
var probeDecode = struct {
	mu    sync.Mutex
	calls int
	after func(call int)
}{}

var registerProbe = sync.OnceFunc(func() {
	compress.Register("cancelprobe", func(ctx context.Context, b []byte, cfg parallel.Config) (*grid.Field, error) {
		f, err := compress.NewFlate(6).Decompress(ctx, b, cfg)
		probeDecode.mu.Lock()
		probeDecode.calls++
		n := probeDecode.calls
		hook := probeDecode.after
		probeDecode.mu.Unlock()
		if hook != nil {
			hook(n)
		}
		return f, err
	})
})

func setProbeDecodeHook(after func(call int)) {
	probeDecode.mu.Lock()
	probeDecode.calls = 0
	probeDecode.after = after
	probeDecode.mu.Unlock()
}

func probeDecodeCalls() int {
	probeDecode.mu.Lock()
	defer probeDecode.mu.Unlock()
	return probeDecode.calls
}

func cancelField(t *testing.T) *grid.Field {
	t.Helper()
	cfg := heat3d.Default(16)
	cfg.Steps = 4
	return heat3d.Solve(cfg)
}

func assertCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected a cancellation error, got nil")
	}
	if !errors.Is(err, compress.ErrCanceled) {
		t.Errorf("error %v does not wrap compress.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if errors.Is(err, compress.ErrCorrupt) || errors.Is(err, compress.ErrTruncated) {
		t.Errorf("cancellation error %v must not classify as corrupt/truncated", err)
	}
}

// TestCompressChunkedCtxCancelSkipsRemainingChunks cancels the context from
// inside the first chunk's codec call and asserts the remaining chunks are
// never compressed: with Workers=1 the chunk loop is serial and in index
// order, so exactly one codec call proves the boundary check aborts the
// rest.
func TestCompressChunkedCtxCancelSkipsRemainingChunks(t *testing.T) {
	f := cancelField(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := &cancelProbe{inner: compress.NewFlate(6), after: func(call int) {
		if call == 1 {
			cancel()
		}
	}}
	opts := Options{DataCodec: probe, Parallel: parallel.Config{Workers: 1}}
	const chunks = 4
	_, err := CompressChunked(ctx, f, opts, chunks)
	assertCanceled(t, err)
	if got := probe.callCount(); got != 1 {
		t.Errorf("codec ran %d times after cancellation; want 1 (remaining %d chunks must be skipped)",
			got, chunks-1)
	}
}

// TestCompressChunkedCtxUncanceledIdentical pins the bugfix contract: a
// context that is never canceled must not change a single byte of the
// archive.
func TestCompressChunkedCtxUncanceledIdentical(t *testing.T) {
	f := cancelField(t)
	opts := Options{DataCodec: compress.NewFlate(6), Parallel: parallel.Config{Workers: 1}}
	plain, err := CompressChunked(context.Background(), f, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	traced, err := CompressChunked(ctx, f, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Archive, traced.Archive) {
		t.Error("archive differs between Background and cancelable (uncanceled) contexts")
	}
}

// TestDecompressChunkedCtxCancelSkipsRemainingChunks builds a four-chunk
// container with the probe codec, cancels from inside the first chunk's
// decode, and asserts the other three records are never decoded — on both
// the strict and the degraded (partial) paths.
func TestDecompressChunkedCtxCancelSkipsRemainingChunks(t *testing.T) {
	registerProbe()
	f := cancelField(t)
	probe := &cancelProbe{inner: compress.NewFlate(6)}
	opts := Options{DataCodec: probe, Parallel: parallel.Config{Workers: 1}}
	const chunks = 4
	res, err := CompressChunked(context.Background(), f, opts, chunks)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("strict", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		setProbeDecodeHook(func(call int) {
			if call == 1 {
				cancel()
			}
		})
		_, err := Decompress(ctx, res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}})
		assertCanceled(t, err)
		if got := probeDecodeCalls(); got != 1 {
			t.Errorf("decoder ran %d times after cancellation; want 1", got)
		}
	})

	t.Run("partial", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		setProbeDecodeHook(func(call int) {
			if call == 1 {
				cancel()
			}
		})
		_, _, err := decodePartial(ctx, res.Archive, parallel.Config{Workers: 1})
		assertCanceled(t, err)
		if got := probeDecodeCalls(); got != 1 {
			t.Errorf("decoder ran %d times after cancellation; want 1", got)
		}
	})

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		setProbeDecodeHook(nil)
		_, err := Decompress(ctx, res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}})
		assertCanceled(t, err)
		if got := probeDecodeCalls(); got != 0 {
			t.Errorf("decoder ran %d times under a pre-canceled context; want 0", got)
		}
	})

	// The archive is intact: with a live context the same bytes round-trip.
	setProbeDecodeHook(nil)
	back, err := Decompress(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}})
	if err != nil {
		t.Fatalf("uncanceled decode of the same archive failed: %v", err)
	}
	if !back.Equal(f, 0) {
		t.Error("uncanceled decode did not round-trip the field")
	}
}
