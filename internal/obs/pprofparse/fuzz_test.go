package pprofparse

import (
	"bytes"
	"compress/gzip"
	"testing"

	"lrm/internal/compress"
)

// FuzzParsePprof drives the parser with mutated profile bytes. The
// contract under hostile input is the decode-hardening one: never panic,
// never allocate past the decode budget (pinned here by running every
// input under a tight compress.SetDecodeAllocCap), and when the input does
// parse, resolve every sample's stack and a value column in range.
func FuzzParsePprof(f *testing.F) {
	full := syntheticProfile()
	f.Add(full)
	f.Add(labeledProfile())
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	_, _ = zw.Write(full)
	_ = zw.Close()
	f.Add(zbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		prev := compress.SetDecodeAllocCap(1 << 20)
		defer compress.SetDecodeAllocCap(prev)

		p, err := Parse(data)
		if err != nil {
			return
		}
		// Parsed profiles must hold their structural invariants even when
		// the bytes were adversarial.
		scratch := make([]string, 0, 32)
		for _, s := range p.Samples {
			scratch = p.StackFuncs(s, scratch[:0])
		}
		if vi := p.ValueIndex("nanoseconds"); vi < -1 || vi >= len(p.SampleTypes) {
			t.Fatalf("ValueIndex = %d with %d sample types", vi, len(p.SampleTypes))
		}
	})
}
