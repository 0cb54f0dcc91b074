// Package pprofparse decodes the pprof wire format (gzipped profile.proto)
// with a minimal stdlib-only protobuf walker, for the continuous profiler
// in internal/obs/profile.
//
// Only the subset of profile.proto needed for function-level rollups is
// decoded: sample types, samples (stacks, values, string labels),
// locations, functions, and the string table. Line numbers, mappings, and
// numeric labels are skipped.
//
// # Allocation bounds
//
// Profile bytes are untrusted once they travel through HTTP endpoints or
// files, so parsing follows the decode-hardening contract of
// internal/compress: the gunzip expansion is routed through
// compress.CheckedAlloc (a gzip bomb is refused before its claimed bytes
// are allocated, and tests can tighten the budget with
// compress.SetDecodeAllocCap), and every repeated-field slice is naturally
// bounded by its payload length — each element consumes at least one input
// byte, so a truncated or hostile profile can never make the parser
// allocate past a small multiple of the input size.
package pprofparse

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"lrm/internal/compress"
)

// maxProfileBytes caps the decompressed size of a parsed profile. Real Go
// CPU/heap profiles are a few hundred KiB at most; the cap leaves two
// orders of magnitude of headroom while refusing gzip bombs. The
// process-wide compress.DecodeAllocCap applies on top, so tests can
// tighten the budget further.
const maxProfileBytes = 64 << 20

// SampleType is one value column of the profile: its type and unit names
// ("cpu"/"nanoseconds", "alloc_space"/"bytes", ...).
type SampleType struct {
	Type string
	Unit string
}

// Sample is one stack sample: location IDs leaf-first, the per-sample-type
// values, and any string labels ("stage", "codec", "chunk", ...) the
// profiled goroutine carried.
type Sample struct {
	Locs   []uint64
	Values []int64
	Labels map[string]string // nil when the sample carries no string labels

	labelRefs [][2]uint64 // string-table (key, str) pairs, resolved post-walk
}

// Profile is the decoded subset of profile.proto.
type Profile struct {
	SampleTypes []SampleType
	Samples     []Sample

	typeRefs  [][2]uint64 // string-table (type, unit) pairs per sample type
	strings   []string
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]int64    // function id -> name string index
}

// --- minimal protobuf reader -------------------------------------------

// pbField is one decoded key/value pair. For wire type 2 the payload is
// the raw bytes; for wire type 0 the varint value.
type pbField struct {
	num  int
	wire int
	vi   uint64
	data []byte
}

// pbWalk iterates the fields of one message, calling fn per field. It
// tolerates (skips) 64-bit and 32-bit scalar fields.
func pbWalk(data []byte, fn func(pbField) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		data = data[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0: // varint
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint in field %d", f.num)
			}
			f.vi = v
			data = data[n:]
		case 1: // fixed64
			if len(data) < 8 {
				return fmt.Errorf("pprof: short fixed64 in field %d", f.num)
			}
			f.vi = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("pprof: bad length in field %d", f.num)
			}
			f.data = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5: // fixed32
			if len(data) < 4 {
				return fmt.Errorf("pprof: short fixed32 in field %d", f.num)
			}
			f.vi = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbPackedUvarints decodes a packed repeated varint payload. A wire-type-0
// single element (protobuf allows unpacked repeats) is handled by the
// callers passing vi directly.
func pbPackedUvarints(data []byte, out []uint64) ([]uint64, error) {
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		out = append(out, v)
		data = data[n:]
	}
	return out, nil
}

// --- profile.proto decoding --------------------------------------------

// gunzip expands gzipped profile bytes under the decode allocation budget:
// the read is hard-limited, and crossing the cap (or the process-wide
// compress.DecodeAllocCap) is a refusal, not an allocation.
func gunzip(raw []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	cap64 := uint64(maxProfileBytes)
	if c := uint64(compress.DecodeAllocCap()); c < cap64 {
		cap64 = c
	}
	out, err := io.ReadAll(io.LimitReader(zr, int64(cap64)+1))
	if err != nil {
		return nil, err
	}
	if err := compress.CheckedAlloc("pprofparse.profile", uint64(len(out)), cap64, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// Parse decodes a gzipped (or raw) profile.proto blob. The string table
// legally appears after the messages that reference it, so sample-type and
// label strings are recorded as indices during the walk and resolved once
// the whole blob has been seen.
func Parse(raw []byte) (*Profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		var err error
		raw, err = gunzip(raw)
		if err != nil {
			return nil, err
		}
	}
	p := &Profile{
		locFuncs:  make(map[uint64][]uint64),
		funcNames: make(map[uint64]int64),
	}
	err := pbWalk(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ, unit uint64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					typ = g.vi
				case 2:
					unit = g.vi
				}
				return nil
			}); err != nil {
				return err
			}
			p.typeRefs = append(p.typeRefs, [2]uint64{typ, unit})
		case 2: // sample: Sample{location_id=1, value=2, label=3}
			var s Sample
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					if g.wire == 2 {
						var err error
						s.Locs, err = pbPackedUvarints(g.data, s.Locs)
						return err
					}
					s.Locs = append(s.Locs, g.vi)
				case 2:
					if g.wire == 2 {
						vs, err := pbPackedUvarints(g.data, nil)
						if err != nil {
							return err
						}
						for _, v := range vs {
							s.Values = append(s.Values, int64(v))
						}
						return nil
					}
					s.Values = append(s.Values, int64(g.vi))
				case 3: // Label{key=1, str=2, num=3, num_unit=4}
					var key, str uint64
					if err := pbWalk(g.data, func(h pbField) error {
						switch h.num {
						case 1:
							key = h.vi
						case 2:
							str = h.vi
						}
						return nil
					}); err != nil {
						return err
					}
					if str != 0 { // numeric-only labels are skipped
						s.labelRefs = append(s.labelRefs, [2]uint64{key, str})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.Samples = append(p.Samples, s)
		case 4: // location: Location{id=1, line=4:Line{function_id=1}}
			var id uint64
			var fns []uint64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.vi
				case 4:
					return pbWalk(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.vi)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			if err := pbWalk(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.vi
				case 2:
					name = int64(g.vi)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.resolveRefs()
	return p, nil
}

// resolveRefs swaps the recorded string-table indices for their strings
// now that the table is complete.
func (p *Profile) resolveRefs() {
	p.SampleTypes = make([]SampleType, len(p.typeRefs))
	for i, r := range p.typeRefs {
		p.SampleTypes[i] = SampleType{Type: p.str(int64(r[0])), Unit: p.str(int64(r[1]))}
	}
	p.typeRefs = nil
	for i := range p.Samples {
		s := &p.Samples[i]
		if s.labelRefs == nil {
			continue
		}
		s.Labels = make(map[string]string, len(s.labelRefs))
		for _, kv := range s.labelRefs {
			s.Labels[p.str(int64(kv[0]))] = p.str(int64(kv[1]))
		}
		s.labelRefs = nil
	}
}

// str resolves a string-table index, tolerating corrupt indices.
func (p *Profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return "?"
	}
	return p.strings[i]
}

// ValueIndex returns the index of the sample-type column whose unit
// matches, falling back to the last column; -1 when the profile has no
// sample types at all (an empty profile).
func (p *Profile) ValueIndex(unit string) int {
	for i, st := range p.SampleTypes {
		if st.Unit == unit {
			return i
		}
	}
	return len(p.SampleTypes) - 1
}

// TypeIndex returns the index of the sample-type column whose type name
// matches ("alloc_space", "inuse_space"), or -1 when absent.
func (p *Profile) TypeIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// StackFuncs appends the sample's function names leaf-first to dst,
// expanding inlined frames, and returns the extended slice. Passing a
// reused dst[:0] keeps per-sample work allocation-free once warm.
func (p *Profile) StackFuncs(s Sample, dst []string) []string {
	for _, loc := range s.Locs {
		for _, fid := range p.locFuncs[loc] {
			dst = append(dst, p.str(p.funcNames[fid]))
		}
	}
	return dst
}
