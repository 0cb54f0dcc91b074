package zfp

import (
	"context"
	"math"
	"testing"

	"lrm/internal/bitstream"
	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// FuzzDecompress asserts the zfp stream parser never panics: arbitrary
// input either decodes or errors — on the serial path AND on the worker
// pool path, which must agree bitwise whenever both succeed.
func FuzzDecompress(f *testing.F) {
	field := grid.New(6, 6)
	for i := range field.Data {
		field.Data[i] = float64(i) / 7
	}
	for _, c := range []*Codec{MustNew(8), MustNewAccuracy(1e-3), MustNewRate(8)} {
		enc, err := c.Compress(context.Background(), field, parallel.Config{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := MustNew(16)
		out, err := c.Decompress(context.Background(), data, parallel.Config{Workers: 1})
		if err == nil && out != nil {
			if out.Len() == 0 || out.Len() > 1<<24 {
				t.Fatalf("implausible decode length %d", out.Len())
			}
		}
		outP, errP := c.Decompress(context.Background(), data, parallel.Config{Workers: 8})
		if (err == nil) != (errP == nil) {
			t.Fatalf("serial/parallel decode disagree: %v vs %v", err, errP)
		}
		if err == nil {
			for i := range out.Data {
				if math.Float64bits(out.Data[i]) != math.Float64bits(outP.Data[i]) {
					t.Fatalf("serial/parallel decode differ bitwise at %d", i)
				}
			}
		}
		_, _ = c.DecodeAt(data, 0, 0)
		_, _ = c.DecodeAt(data, 1)

		// Differential check of the plane decoders over the same arbitrary
		// (valid, truncated, or corrupt) bytes: the batch window decoder and
		// the per-bit reference must agree on every value, significance
		// count, and error outcome. The checked-in seeds include truncated
		// streams, so plain `go test` covers the fault-injection corpus.
		rFast := bitstream.NewReader(data)
		rSlow := bitstream.NewReader(data)
		nf, ns := 0, 0
		for p := 0; p < 24 && nf < 64; p++ {
			xf, nf2, errF := decodePlane(rFast, 64, nf)
			xs, ns2, errS := decodePlaneScalar(rSlow, 64, ns)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("plane %d: decoder error mismatch: %v vs %v", p, errF, errS)
			}
			if errF != nil {
				break
			}
			if xf != xs || nf2 != ns2 {
				t.Fatalf("plane %d: (%#x,%d) != reference (%#x,%d)", p, xf, nf2, xs, ns2)
			}
			nf, ns = nf2, ns2
		}
	})
}
