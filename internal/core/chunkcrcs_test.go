package core

import (
	"context"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/sim/heat3d"
)

// TestChunkCRCsContentAddress pins the contract internal/serve's response
// cache depends on: ChunkCRCs frames a valid container, recomputes CRCs
// over actual payload bytes (so a payload flip changes the address even
// though the stored CRC field did not), and refuses anything that is not a
// cleanly framed LRMC container.
func TestChunkCRCsContentAddress(t *testing.T) {
	f := heat3d.Solve(heat3d.Default(12))
	res, err := CompressChunked(context.Background(), f, Options{DataCodec: compress.NewFlate(6)}, 4)
	if err != nil {
		t.Fatalf("CompressChunked: %v", err)
	}

	dims, crcs, ok := ChunkCRCs(res.Archive)
	if !ok {
		t.Fatal("ChunkCRCs rejected a valid container")
	}
	if len(dims) != 3 || dims[0] != 12 {
		t.Fatalf("dims = %v", dims)
	}
	if len(crcs) != 4 {
		t.Fatalf("len(crcs) = %d, want 4", len(crcs))
	}

	// Flip one payload byte near the end (inside the last chunk's record,
	// past its CRC and length fields): the recomputed address must change.
	mut := append([]byte(nil), res.Archive...)
	mut[len(mut)-3] ^= 0xFF
	_, mcrcs, ok := ChunkCRCs(mut)
	if !ok {
		t.Fatal("ChunkCRCs rejected a framed container with a payload flip")
	}
	same := true
	for i := range crcs {
		if crcs[i] != mcrcs[i] {
			same = false
		}
	}
	if same {
		t.Fatal("payload flip did not change any chunk CRC: the address trusts stored fields")
	}

	// Non-containers and damaged framing must report ok=false.
	if _, _, ok := ChunkCRCs(nil); ok {
		t.Error("nil accepted")
	}
	if _, _, ok := ChunkCRCs([]byte("LRM1whatever")); ok {
		t.Error("single-shot magic accepted")
	}
	if _, _, ok := ChunkCRCs(res.Archive[:len(res.Archive)/2]); ok {
		t.Error("truncated container accepted")
	}
	if _, _, ok := ChunkCRCs(append(append([]byte(nil), res.Archive...), 0xAA)); ok {
		t.Error("trailing garbage accepted")
	}
}
