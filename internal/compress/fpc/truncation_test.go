package fpc

import (
	"context"
	"errors"
	"testing"

	"lrm/internal/compress"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// TestDecompressEveryPrefix asserts the decode contract on truncation: every
// strict prefix of a valid stream must fail with an error wrapping
// compress.ErrTruncated or compress.ErrCorrupt — never panic, never decode
// to a field.
func TestDecompressEveryPrefix(t *testing.T) {
	f := grid.New(8, 9)
	for j := 0; j < 8; j++ {
		for i := 0; i < 9; i++ {
			f.Set2(float64(j*i)*0.125+1.5, j, i)
		}
	}
	c := MustNew(10)
	enc, err := c.Compress(context.Background(), f, parallel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		_, err := c.Decompress(context.Background(), enc[:n], parallel.Config{})
		if err == nil {
			t.Fatalf("prefix %d/%d decoded without error", n, len(enc))
		}
		if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("prefix %d/%d: unclassified error: %v", n, len(enc), err)
		}
	}
}
