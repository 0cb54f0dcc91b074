package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
	"lrm/internal/grid"
	"lrm/internal/mpi"
	"lrm/internal/obs"
	"lrm/internal/parallel"
)

// hostileChunkedArchive builds an LRMC container whose header claims the
// given dims, with one plausible-looking record so only the dims are
// hostile. The dims header is written by hand: the extents are uint64
// claims, some beyond a 32-bit int.
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
		f, err := Decompress(context.Background(), archive, DecompressOpts{})
		if err == nil {
			t.Fatalf("dims %v: hostile archive accepted (field dims %v)", dims, f.Dims)
		}
		if !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("dims %v: error %v does not wrap ErrCorrupt", dims, err)
		}
		if _, _, err := decodePartial(context.Background(), archive, parallel.Config{}); err == nil {
			t.Fatalf("dims %v: hostile archive accepted in degraded mode", dims)
		}
	}
}

// decodePartial is Decompress in degraded mode on the budget cfg.
func decodePartial(ctx context.Context, archive []byte, cfg parallel.Config) (*grid.Field, *Partial, error) {
	p := new(Partial)
	f, err := Decompress(ctx, archive, DecompressOpts{Parallel: cfg, Partial: p})
	return f, p, err
}

// claimedChunksArchive is an LRMC header that claims `chunks` one-row
// records over a field of that many rows and carries none of them.
func claimedChunksArchive(chunks int) []byte {
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, uint64(chunks))
	buf.Write(compress.EncodeDimsHeader([]int{chunks}))
	return buf.Bytes()
}

// TestChunkedClaimedChunksBounded pins the chunk-count bound: a header may
// claim no more records than minChunkRecord-byte records fit in the bytes
// after it, and the claim sizes nothing before that check. Without it each claimed chunk cost a 40-byte
// record up front (41.9 MB for the 2^20 claim), and degraded mode reported
// the 2^16 claim as 65,536 failed chunks with no error.
func TestChunkedClaimedChunksBounded(t *testing.T) {
	ctx := context.Background()
	serial := parallel.Config{Workers: 1}
	for _, claimed := range []int{1 << 20, 1 << 16} {
		archive := claimedChunksArchive(claimed)
		if len(archive) != 11 {
			t.Fatalf("archive is %d bytes, want 11", len(archive))
		}
		for _, mode := range []struct {
			name    string
			partial *Partial
		}{{"strict", nil}, {"partial", new(Partial)}} {
			var err error
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			_, err = Decompress(ctx, archive, DecompressOpts{Parallel: serial, Partial: mode.partial})
			runtime.ReadMemStats(&ms)
			if alloc := ms.TotalAlloc - before; alloc >= 1<<20 {
				t.Errorf("%d chunks, %s: decode allocated %d bytes, want < 1 MiB", claimed, mode.name, alloc)
			}
			if !errors.Is(err, compress.ErrCorrupt) && !errors.Is(err, compress.ErrTruncated) {
				t.Errorf("%d chunks, %s: error %v, want ErrCorrupt or ErrTruncated", claimed, mode.name, err)
			}
		}
		if _, _, ok := ChunkCRCs(archive); ok {
			t.Errorf("%d chunks: ChunkCRCs framed the archive", claimed)
		}
	}
}

// zeroRecordsArchive is a size-byte LRMC body over a one-column field of
// `claimed` rows that claims `claimed` one-row chunks; every byte after the
// header is zero, so each record frames as an empty record (CRC 0, length
// 0) that fails its CRC.
func zeroRecordsArchive(claimed, size int) []byte {
	var buf bytes.Buffer
	buf.WriteString(chunkedMagic)
	writeUvarint(&buf, uint64(claimed))
	buf.Write(compress.EncodeDimsHeader([]int{claimed}))
	return append(buf.Bytes(), make([]byte, size-buf.Len())...)
}

// TestDegradedDecodeHostileRecordsBounded: a 512 KiB body claiming 2^19
// empty records is refused at the header, and the largest claim the bound
// lets through (one record per minChunkRecord bytes, every one failing
// its CRC) is reported chunk by chunk. Both allocate under 40 MB with
// metrics on; the 2^19 body used to cost 175 MB.
func TestDegradedDecodeHostileRecordsBounded(t *testing.T) {
	pm := obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(pm) })
	const size = 512 << 10
	most := (size - 16) / minChunkRecord // the header takes under 16 bytes
	for _, claimed := range []int{1 << 19, most} {
		archive := zeroRecordsArchive(claimed, size)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, p, err := decodePartial(context.Background(), archive, parallel.Config{})
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc - before
		t.Logf("%d claimed chunks: %d bytes allocated", claimed, alloc)
		if alloc >= 40<<20 {
			t.Errorf("%d claimed chunks: degraded decode allocated %d bytes, want < 40 MB", claimed, alloc)
		}
		if claimed > most {
			if !errors.Is(err, compress.ErrHeader) {
				t.Errorf("%d claimed chunks: error %v, want ErrHeader", claimed, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d claimed chunks: %v", claimed, err)
		}
		if len(p.Errors) != claimed || cap(p.Errors) != claimed || p.Chunks != claimed {
			t.Fatalf("%d claimed chunks: %d errors (cap %d) of %d chunks", claimed, len(p.Errors), cap(p.Errors), p.Chunks)
		}
		if !errors.Is(p.Errors[claimed-1], compress.ErrCorrupt) {
			t.Errorf("last chunk error %v, want ErrCorrupt", p.Errors[claimed-1])
		}
	}
}

// TestMinChunkRecordIsAFloor: no codec family name is shorter than the
// one minSingleArchive assumes, and no codec's archive of a one-value
// field is shorter than minSingleArchive.
func TestMinChunkRecordIsAFloor(t *testing.T) {
	for _, fam := range compress.Families() {
		if len(fam) < len("sz") {
			t.Errorf("codec family %q is shorter than minSingleArchive assumes", fam)
		}
	}
	one := grid.New(1)
	one.Data[0] = 1.5
	codecs := []compress.Codec{compress.NewFlate(6), fpc.MustNew(12), sz.MustNew(sz.Abs, 1e-3), zfp.MustNew(16), ctrCodec{}}
	for _, c := range codecs {
		res, err := Compress(context.Background(), one, Options{DataCodec: c})
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(res.Archive) < minSingleArchive {
			t.Errorf("%s: %d-byte archive is under minSingleArchive %d", c.Name(), len(res.Archive), minSingleArchive)
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
	res, err := CompressChunked(context.Background(), f, Options{DataCodec: ctrCodec{}}, 4)
	if err != nil {
		t.Fatal(err)
	}

	// 8 workers over 4 chunks leaves 2 per chunk's codec, symmetric with
	// CompressChunked's split.
	takeCtrBudgets()
	dec, err := Decompress(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 8}})
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
	if _, err := Decompress(context.Background(), res.Archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}}); err != nil {
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
	buf.Write(compress.EncodeDimsHeader(dims))
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
		res, err := Compress(context.Background(), sub, Options{DataCodec: fpc.MustNew(10)})
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

	if _, err := Decompress(context.Background(), archive, DecompressOpts{}); err == nil {
		t.Fatal("strict decode accepted a bad chunk")
	}
	// Degraded mode exists only for LRMC: a chunk's own LRM1 archive is a
	// header error under Partial.
	if _, _, err := decodePartial(context.Background(), archives[0], parallel.Config{}); !errors.Is(err, compress.ErrHeader) {
		t.Fatalf("LRM1 under Partial: error %v, want ErrHeader", err)
	}

	pf, p, err := decodePartial(context.Background(), archive, parallel.Config{})
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
	for i, v := range pf.Data {
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
	intact := buildChunkedArchive(t, f.Dims, archives)
	goodField, good, err := decodePartial(context.Background(), intact, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !good.Complete() || !goodField.Equal(f, 0) {
		t.Fatalf("intact archive not complete: %+v", good)
	}
	// ...and decodes to exactly what the strict decode returns.
	strict, err := Decompress(context.Background(), intact, DecompressOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goodField.Bytes(), strict.Bytes()) {
		t.Fatal("degraded decode of an intact archive differs from the strict decode")
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
	_, p, err := decodePartial(context.Background(), cut, parallel.Config{})
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
	if _, err := Decompress(context.Background(), trailing, DecompressOpts{}); err == nil {
		t.Fatal("strict decode accepted trailing bytes")
	}
	pf, p, err := decodePartial(context.Background(), trailing, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Complete() || p.Trailing != 2 || len(p.Errors) != 0 {
		t.Fatalf("trailing partial = %+v", p)
	}
	if !pf.Equal(f, 0) {
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
	buf.Write(compress.EncodeDimsHeader(f.Dims))
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
	_, err := Decompress(context.Background(), buf.Bytes(), DecompressOpts{})
	if err == nil {
		t.Fatal("reordered records accepted")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("reorder error %v does not wrap ErrCorrupt", err)
	}

	_, p, err := decodePartial(context.Background(), buf.Bytes(), parallel.Config{})
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
	res, err := CompressChunked(context.Background(), f, Options{DataCodec: fpc.MustNew(10)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(res.Archive); cut++ {
		_, err := Decompress(context.Background(), res.Archive[:cut], DecompressOpts{})
		if err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
		if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("prefix %d: error %v carries no sentinel", cut, err)
		}
	}
}

// claimedDimsArchive is a one-base LRM1 archive whose header claims dims
// {claim, 1} while its zfp streams carry a 1-value rep and a {4, 1} delta.
func claimedDimsArchive(t *testing.T, claim int) []byte {
	t.Helper()
	codec := zfp.MustNewAccuracy(1e-3)
	stream := func(dims ...int) []byte {
		s, err := codec.Compress(context.Background(), grid.New(dims...), parallel.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	meta, err := compress.FlateBytes(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	family := compress.CodecFamily(codec.Name())
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(modePreconditoned)
	writeString(&buf, family)
	writeString(&buf, "one-base")
	buf.Write(compress.EncodeDimsHeader([]int{claim, 1}))
	writeUvarint(&buf, 0)
	writeBytes(&buf, meta)
	writeBytes(&buf, stream(1))
	writeString(&buf, family)
	writeBytes(&buf, stream(4, 1))
	return buf.Bytes()
}

// TestPreconditionedDimsClaimBounded: the header's dims are checked
// against the decoded delta before the reconstruction allocates for them.
// A 62-byte archive claiming {2^24, 1} used to allocate 134 MB in the
// one-base reconstructor before failing on the dims mismatch.
func TestPreconditionedDimsClaimBounded(t *testing.T) {
	archive := claimedDimsArchive(t, 1<<24)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, err := Decompress(context.Background(), archive, DecompressOpts{Parallel: parallel.Config{Workers: 1}})
	runtime.ReadMemStats(&ms)
	if alloc := ms.TotalAlloc - before; alloc >= 1<<20 {
		t.Errorf("%d-byte archive: decode allocated %d bytes, want < 1 MiB", len(archive), alloc)
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("%d-byte archive: error %v, want ErrCorrupt", len(archive), err)
	}
	// The same construction with honest dims decodes.
	if _, err := Decompress(context.Background(), claimedDimsArchive(t, 4), DecompressOpts{}); err != nil {
		t.Errorf("honest archive: %v", err)
	}
}
