package huffman

import (
	"errors"
	"testing"

	"lrm/internal/compress"
)

// TestDecodeEveryPrefix asserts the decode contract on truncation: every
// strict prefix of a valid stream must fail with an error wrapping
// compress.ErrTruncated or compress.ErrCorrupt — never panic, never decode.
func TestDecodeEveryPrefix(t *testing.T) {
	symbols := make([]int, 257)
	for i := range symbols {
		symbols[i] = (i*7)%31 - 15
	}
	enc := Encode(symbols, 1)
	for n := 0; n < len(enc); n++ {
		_, err := Decode(enc[:n])
		if err == nil {
			t.Fatalf("prefix %d/%d decoded without error", n, len(enc))
		}
		if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("prefix %d/%d: unclassified error: %v", n, len(enc), err)
		}
	}
}
