package sz

import (
	"fmt"

	"lrm/internal/compress"
	"lrm/internal/huffman"
	"lrm/internal/parallel"
)

// encodeCodes entropy-codes the quantization codes. Huffman is the right
// tool here: hit codes cluster tightly around `radius`, so the common bins
// cost only a few bits each. The count and pack stages shard across the
// worker pool without changing the output bytes.
func encodeCodes(codes []int, workers int) []byte {
	return huffman.Encode(codes, workers)
}

// decodeCodes reverses encodeCodes and validates the expected count. The
// codes land in an arena slice: the caller owns it and must return it with
// parallel.PutInts once dequantized.
func decodeCodes(b []byte, n int) ([]int, error) {
	buf := parallel.Ints(n)
	codes, err := huffman.DecodeInto(buf, b)
	if err != nil {
		parallel.PutInts(buf)
		return nil, fmt.Errorf("sz: %w", err)
	}
	if len(codes) != n {
		parallel.PutInts(buf)
		return nil, fmt.Errorf("sz: decoded %d codes, want %d: %w", len(codes), n, compress.ErrCorrupt)
	}
	return codes, nil
}
