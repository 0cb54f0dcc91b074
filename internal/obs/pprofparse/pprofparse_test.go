package pprofparse

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"lrm/internal/compress"
)

// pbEnc builds protobuf wire bytes for the synthetic-profile tests.
type pbEnc struct{ buf []byte }

func (e *pbEnc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *pbEnc) varintField(num int, v uint64) {
	e.uvarint(uint64(num)<<3 | 0)
	e.uvarint(v)
}

func (e *pbEnc) bytesField(num int, b []byte) {
	e.uvarint(uint64(num)<<3 | 2)
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *pbEnc) msgField(num int, fn func(*pbEnc)) {
	var inner pbEnc
	fn(&inner)
	e.bytesField(num, inner.buf)
}

func (e *pbEnc) packedField(num int, vs ...uint64) {
	var inner pbEnc
	for _, v := range vs {
		inner.uvarint(v)
	}
	e.bytesField(num, inner.buf)
}

// syntheticProfile builds a two-column CPU profile:
//
//	strings: ["", "samples", "count", "cpu", "nanoseconds", "fnA", "fnB", "fnC"]
//	functions: 1=fnA 2=fnB 3=fnC; locations: 1->fnA, 2->fnB, 3->{fnC,fnA} (inlined)
//	sample [1,2]   values [3, 300]  → stack fnA<-fnB
//	sample [1,1]   values [1, 100]  → recursive fnA (credited once)
//	sample [3]     values [1, 100]  → fnC with inlined caller fnA
//
// Cumulative ns: fnA=500 (all samples), fnB=300, fnC=100; total=500.
func syntheticProfile() []byte {
	var e pbEnc
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "fnA", "fnB", "fnC"}
	e.msgField(1, func(m *pbEnc) { m.varintField(1, 1); m.varintField(2, 2) }) // samples/count
	e.msgField(1, func(m *pbEnc) { m.varintField(1, 3); m.varintField(2, 4) }) // cpu/nanoseconds
	e.msgField(2, func(m *pbEnc) { m.packedField(1, 1, 2); m.packedField(2, 3, 300) })
	e.msgField(2, func(m *pbEnc) { m.packedField(1, 1, 1); m.packedField(2, 1, 100) })
	e.msgField(2, func(m *pbEnc) { m.packedField(1, 3); m.packedField(2, 1, 100) })
	e.msgField(4, func(m *pbEnc) {
		m.varintField(1, 1)
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 1) })
	})
	e.msgField(4, func(m *pbEnc) {
		m.varintField(1, 2)
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 2) })
	})
	e.msgField(4, func(m *pbEnc) {
		m.varintField(1, 3)
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 3) })
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 1) })
	})
	e.msgField(5, func(m *pbEnc) { m.varintField(1, 1); m.varintField(2, 5) })
	e.msgField(5, func(m *pbEnc) { m.varintField(1, 2); m.varintField(2, 6) })
	e.msgField(5, func(m *pbEnc) { m.varintField(1, 3); m.varintField(2, 7) })
	for _, s := range strs {
		e.bytesField(6, []byte(s))
	}
	return e.buf
}

// labeledProfile is syntheticProfile with two extra string-table entries
// ("stage", "chunk_compress") and a stage label on the first sample.
func labeledProfile() []byte {
	var e pbEnc
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "fnA", "fnB", "fnC",
		"stage", "chunk_compress"}
	e.msgField(1, func(m *pbEnc) { m.varintField(1, 1); m.varintField(2, 2) })
	e.msgField(1, func(m *pbEnc) { m.varintField(1, 3); m.varintField(2, 4) })
	e.msgField(2, func(m *pbEnc) {
		m.packedField(1, 1, 2)
		m.packedField(2, 3, 300)
		m.msgField(3, func(l *pbEnc) { l.varintField(1, 8); l.varintField(2, 9) })
	})
	e.msgField(2, func(m *pbEnc) { m.packedField(1, 1, 1); m.packedField(2, 1, 100) })
	e.msgField(4, func(m *pbEnc) {
		m.varintField(1, 1)
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 1) })
	})
	e.msgField(4, func(m *pbEnc) {
		m.varintField(1, 2)
		m.msgField(4, func(l *pbEnc) { l.varintField(1, 2) })
	})
	e.msgField(5, func(m *pbEnc) { m.varintField(1, 1); m.varintField(2, 5) })
	e.msgField(5, func(m *pbEnc) { m.varintField(1, 2); m.varintField(2, 6) })
	for _, s := range strs {
		e.bytesField(6, []byte(s))
	}
	return e.buf
}

// TestParseGzip checks the gzip header path (the format the runtime
// actually emits) decodes to the same profile as the raw bytes.
func TestParseGzip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(syntheticProfile()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zp, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(syntheticProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zp, p) {
		t.Fatalf("gzip path decoded %+v, raw path %+v", zp, p)
	}
	if len(p.Samples) != 3 || p.ValueIndex("nanoseconds") != 1 {
		t.Fatalf("synthetic profile: %d samples, nanoseconds column %d", len(p.Samples), p.ValueIndex("nanoseconds"))
	}
}

// TestParseCorrupt feeds garbage and truncations; the parser must error
// (or return a profile) rather than panic.
func TestParseCorrupt(t *testing.T) {
	full := syntheticProfile()
	inputs := [][]byte{
		nil,
		{0xff},
		[]byte("not a profile"),
		full[:len(full)/2],
		full[:3],
	}
	for i, in := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("input %d: panic %v", i, r)
				}
			}()
			_, _ = Parse(in)
		}()
	}
}

// TestParseSampleTypesAndLabels checks the parser surfaces the sample-type
// names and per-sample string labels the continuous profiler attributes
// by, including the deferred string-table resolution (the table arrives
// after the messages that reference it).
func TestParseSampleTypesAndLabels(t *testing.T) {
	p, err := Parse(labeledProfile())
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []SampleType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}}
	if len(p.SampleTypes) != 2 || p.SampleTypes[0] != wantTypes[0] || p.SampleTypes[1] != wantTypes[1] {
		t.Fatalf("sample types %+v, want %+v", p.SampleTypes, wantTypes)
	}
	if got := p.ValueIndex("nanoseconds"); got != 1 {
		t.Fatalf("ValueIndex(nanoseconds) = %d, want 1", got)
	}
	if got := p.TypeIndex("cpu"); got != 1 {
		t.Fatalf("TypeIndex(cpu) = %d, want 1", got)
	}
	if got := p.TypeIndex("alloc_space"); got != -1 {
		t.Fatalf("TypeIndex(alloc_space) = %d, want -1", got)
	}
	if len(p.Samples) != 2 {
		t.Fatalf("samples %d, want 2", len(p.Samples))
	}
	if got := p.Samples[0].Labels["stage"]; got != "chunk_compress" {
		t.Fatalf("sample 0 stage label %q, want chunk_compress", got)
	}
	if p.Samples[1].Labels != nil {
		t.Fatalf("sample 1 unexpectedly labeled: %v", p.Samples[1].Labels)
	}
	stack := p.StackFuncs(p.Samples[0], nil)
	if len(stack) != 2 || stack[0] != "fnA" || stack[1] != "fnB" {
		t.Fatalf("stack %v, want [fnA fnB]", stack)
	}
}

// TestParseEmptyProfile: a profile with no sample types parses without
// error to no samples and no value column (the runtime emits such
// profiles for zero-sample windows).
func TestParseEmptyProfile(t *testing.T) {
	p, err := Parse([]byte{})
	if err != nil {
		t.Fatalf("empty profile: %v", err)
	}
	if len(p.Samples) != 0 || p.ValueIndex("nanoseconds") != -1 {
		t.Fatalf("empty profile: %d samples, value column %d", len(p.Samples), p.ValueIndex("nanoseconds"))
	}
}

// TestGunzipBombRefused: a gzip stream claiming more bytes than the decode
// allocation cap is refused with a classified error before the claimed
// bytes are allocated.
func TestGunzipBombRefused(t *testing.T) {
	prev := compress.SetDecodeAllocCap(1 << 16)
	defer compress.SetDecodeAllocCap(prev)

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zero := make([]byte, 1<<12)
	for i := 0; i < 64; i++ { // 256 KiB of zeros, compresses tiny
		if _, err := zw.Write(zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := Parse(buf.Bytes())
	if err == nil {
		t.Fatal("gzip bomb parsed without error")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("bomb refusal not classified as ErrCorrupt: %v", err)
	}
}
