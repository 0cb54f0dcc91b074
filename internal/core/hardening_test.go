package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/grid"
	"lrm/internal/mpi"
	"lrm/internal/parallel"
)

// hostileChunkedArchive builds an LRMC container whose header claims the
// given dims, with one plausible-looking record so only the dims are
// hostile.
func hostileChunkedArchive(dims []uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, 1) // chunks
	buf.WriteByte(byte(len(dims)))
	for _, d := range dims {
		writeUvarint(&buf, d)
	}
	writeUvarint(&buf, 0) // CRC (never reached)
	writeBytes(&buf, []byte(magic))
	return buf.Bytes()
}

func TestChunkedDimsBomb(t *testing.T) {
	// Regression: the old header check only bounded each extent by 2^32, so
	// {2^32, 1, 1} drove a 32 GiB allocation and {2^32, 2^32, 2^32}
	// overflowed the int product and panicked in the grid constructor.
	cases := [][]uint64{
		{1 << 32, 1, 1},
		{1 << 32, 1 << 32, 1 << 32},
		{1 << 20, 1 << 20, 1 << 20}, // each extent plausible, product absurd
	}
	for _, dims := range cases {
		archive := hostileChunkedArchive(dims)
		f, err := DecompressCtx(context.Background(), archive)
		if err == nil {
			t.Fatalf("dims %v: hostile archive accepted (field dims %v)", dims, f.Dims)
		}
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("dims %v: error %v does not wrap ErrCorrupt", dims, err)
		}
		if _, err := DecompressChunkedPartialWithOptsCtx(context.Background(), archive, DecompressOpts{}); err == nil {
			t.Fatalf("dims %v: hostile archive accepted in degraded mode", dims)
		}
	}
}

func TestGridCheckDimsOverflow(t *testing.T) {
	if _, err := grid.NewChecked(1<<31, 1<<31, 4); err == nil {
		t.Fatal("overflowing dims accepted")
	}
	if _, err := grid.NewChecked(1<<32, 1<<32, 1<<32); err == nil {
		t.Fatal("wrapping dims accepted")
	}
}

// ctrCodec is a registry test double: a trivial store-raw codec whose
// registered decoder records the worker budget of every config it is
// handed, so tests can observe how the chunked container divides its pool.
type ctrCodec struct{}

func (ctrCodec) Name() string   { return "ctr" }
func (ctrCodec) Lossless() bool { return true }

func (ctrCodec) Compress(_ context.Context, f *grid.Field, _ parallel.Config) ([]byte, error) {
	return append(compress.EncodeDimsHeader(f.Dims), f.Bytes()...), nil
}

func (ctrCodec) Decompress(_ context.Context, b []byte, _ parallel.Config) (*grid.Field, error) {
	return ctrDecode(b)
}

func ctrDecode(b []byte) (*grid.Field, error) {
	dims, rest, err := compress.DecodeDimsHeader(b)
	if err != nil {
		return nil, err
	}
	f, err := grid.FromBytes(rest, dims...)
	if err != nil {
		return nil, compress.Classify(err)
	}
	return f, nil
}

var ctrSeen struct {
	mu      sync.Mutex
	budgets []int
}

func init() {
	compress.Register("ctr", func(_ context.Context, b []byte, cfg parallel.Config) (*grid.Field, error) {
		ctrSeen.mu.Lock()
		ctrSeen.budgets = append(ctrSeen.budgets, cfg.Workers)
		ctrSeen.mu.Unlock()
		return ctrDecode(b)
	})
}

func takeCtrBudgets() []int {
	ctrSeen.mu.Lock()
	defer ctrSeen.mu.Unlock()
	out := ctrSeen.budgets
	ctrSeen.budgets = nil
	return out
}

func TestDecompressOptsWorkerBudget(t *testing.T) {
	f := grid.New(8, 6)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: ctrCodec{}}, 4)
	if err != nil {
		t.Fatal(err)
	}

	// 8 workers over 4 chunks leaves 2 per chunk's codec, symmetric with
	// CompressChunked's split.
	takeCtrBudgets()
	dec, err := DecompressWithOptsCtx(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(f, 0) {
		t.Fatal("worker-budget decode round trip mismatch")
	}
	for _, w := range takeCtrBudgets() {
		if w != 2 {
			t.Fatalf("chunk codec got budget %d, want 2", w)
		}
	}

	// A serial budget stays serial all the way down.
	if _, err := DecompressWithOptsCtx(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, w := range takeCtrBudgets() {
		if w != 1 {
			t.Fatalf("chunk codec got budget %d, want 1", w)
		}
	}
}

// buildChunkedArchive hand-assembles an LRMC container from per-chunk LRM1
// archives, mirroring CompressChunked's writer, so tests can splice in
// corrupted records with valid framing.
func buildChunkedArchive(t *testing.T, dims []int, chunkArchives [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, uint64(len(chunkArchives)))
	buf.WriteByte(byte(len(dims)))
	for _, d := range dims {
		writeUvarint(&buf, uint64(d))
	}
	for c, a := range chunkArchives {
		writeUvarint(&buf, uint64(chunkCRC(c, a)))
		writeBytes(&buf, a)
	}
	return buf.Bytes()
}

// chunkSlabArchives compresses each leading-dimension slab of f separately,
// returning the per-chunk LRM1 archives.
func chunkSlabArchives(t *testing.T, f *grid.Field, chunks int) [][]byte {
	t.Helper()
	slab := 1
	for _, d := range f.Dims[1:] {
		slab *= d
	}
	out := make([][]byte, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := mpi.Slab1D(f.Dims[0], chunks, c)
		dims := append([]int{hi - lo}, f.Dims[1:]...)
		sub, err := grid.FromData(f.Data[lo*slab:hi*slab], dims...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompressCtx(context.Background(), sub, Options{DataCodec: fpc.MustNew(10)})
		if err != nil {
			t.Fatal(err)
		}
		out[c] = res.Archive
	}
	return out
}

func TestDecompressChunkedPartial(t *testing.T) {
	f := grid.New(12, 5)
	for i := range f.Data {
		f.Data[i] = 1 + float64(i%7)
	}
	const chunks = 4
	archives := chunkSlabArchives(t, f, chunks)

	// A record whose CRC is valid over garbage bytes: the container framing
	// survives, the chunk decode fails.
	bad := append([][]byte(nil), archives...)
	bad[1] = []byte("not an archive")
	archive := buildChunkedArchive(t, f.Dims, bad)

	if _, err := DecompressCtx(context.Background(), archive); err == nil {
		t.Fatal("strict decode accepted a bad chunk")
	}

	p, err := DecompressChunkedPartialWithOptsCtx(context.Background(), archive, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete() || p.Chunks != chunks || len(p.Errors) != 1 {
		t.Fatalf("partial = %+v", p)
	}
	ce := p.Errors[0]
	if ce.Chunk != 1 {
		t.Fatalf("failed chunk %d, want 1", ce.Chunk)
	}
	if !errors.Is(ce, compress.ErrCorrupt) && !errors.Is(ce, compress.ErrTruncated) {
		t.Fatalf("chunk error %v carries no sentinel", ce)
	}
	slab := f.Dims[1]
	for i, v := range p.Field.Data {
		row := i / slab
		switch {
		case row >= ce.Lo && row < ce.Hi:
			if v != 0 {
				t.Fatalf("failed region row %d not zeroed: %v", row, v)
			}
		default:
			if v != f.Data[i] {
				t.Fatalf("surviving region mismatch at %d: %v != %v", i, v, f.Data[i])
			}
		}
	}

	// A fully intact archive reports Complete.
	good, err := DecompressChunkedPartialWithOptsCtx(context.Background(), buildChunkedArchive(t, f.Dims, archives), DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !good.Complete() || !good.Field.Equal(f, 0) {
		t.Fatalf("intact archive not complete: %+v", good)
	}
}

func TestDecompressChunkedPartialTruncated(t *testing.T) {
	f := grid.New(9, 4)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	const chunks = 3
	archive := buildChunkedArchive(t, f.Dims, chunkSlabArchives(t, f, chunks))

	// Cut inside the last record: framing for chunks 0-1 survives.
	cut := archive[:len(archive)-3]
	p, err := DecompressChunkedPartialWithOptsCtx(context.Background(), cut, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Errors) != 1 || p.Errors[0].Chunk != 2 {
		t.Fatalf("partial after truncation = %+v", p.Errors)
	}
	if !errors.Is(p.Errors[0], compress.ErrTruncated) {
		t.Fatalf("truncation error %v does not wrap ErrTruncated", p.Errors[0])
	}

	// Trailing garbage is tolerated in degraded mode, an error in strict.
	trailing := append(append([]byte(nil), archive...), 0xAA, 0xBB)
	if _, err := DecompressCtx(context.Background(), trailing); err == nil {
		t.Fatal("strict decode accepted trailing bytes")
	}
	p, err = DecompressChunkedPartialWithOptsCtx(context.Background(), trailing, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete() || p.Trailing != 2 || len(p.Errors) != 0 {
		t.Fatalf("trailing partial = %+v", p)
	}
	if !p.Field.Equal(f, 0) {
		t.Fatal("trailing bytes corrupted recovered field")
	}
}

func TestChunkedRecordReorderDetected(t *testing.T) {
	// The record CRC is seeded with the chunk index, so swapping two intact
	// records (or duplicating one) must fail validation rather than
	// silently scrambling the field.
	f := grid.New(8, 3)
	for i := range f.Data {
		f.Data[i] = float64(i * i)
	}
	const chunks = 4
	archives := chunkSlabArchives(t, f, chunks)

	swapped := append([][]byte(nil), archives...)
	swapped[0], swapped[2] = swapped[2], swapped[0]
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, uint64(chunks))
	buf.WriteByte(byte(len(f.Dims)))
	for _, d := range f.Dims {
		writeUvarint(&buf, uint64(d))
	}
	for c, a := range swapped {
		// CRCs as the original writer computed them, moved with the records:
		// exactly what a splice produces.
		orig := c
		switch c {
		case 0:
			orig = 2
		case 2:
			orig = 0
		}
		writeUvarint(&buf, uint64(chunkCRC(orig, a)))
		writeBytes(&buf, a)
	}
	_, err := DecompressCtx(context.Background(), buf.Bytes())
	if err == nil {
		t.Fatal("reordered records accepted")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("reorder error %v does not wrap ErrCorrupt", err)
	}

	p, err := DecompressChunkedPartialWithOptsCtx(context.Background(), buf.Bytes(), DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Errors) != 2 {
		t.Fatalf("want exactly the two swapped chunks failed, got %+v", p.Errors)
	}
}

func TestChunkedEveryPrefixTruncation(t *testing.T) {
	f := grid.New(6, 4)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	res, err := CompressChunkedCtx(context.Background(), f, Options{DataCodec: fpc.MustNew(10)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(res.Archive); cut++ {
		_, err := DecompressCtx(context.Background(), res.Archive[:cut])
		if err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
		if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("prefix %d: error %v carries no sentinel", cut, err)
		}
	}
}
