package fpc

import (
	"context"
	"testing"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// FuzzDecompress asserts the fpc stream parser never panics on arbitrary
// bytes: input either decodes or errors.
func FuzzDecompress(f *testing.F) {
	field := grid.New(5, 9)
	for i := range field.Data {
		field.Data[i] = float64(i%7) * 1.25
	}
	for _, level := range []int{1, 12, 16} {
		enc, err := MustNew(level).Compress(context.Background(), field, parallel.Config{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\xff\xfe\xfd not an fpc stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(16)
		if out, err := c.Decompress(context.Background(), data, parallel.Config{}); err == nil && out != nil {
			if out.Len() == 0 || out.Len() > 1<<24 {
				t.Fatalf("implausible decode length %d", out.Len())
			}
		}
	})
}
