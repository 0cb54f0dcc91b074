package compress

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"lrm/internal/grid"
	"lrm/internal/parallel"
)

// DecodeFunc decompresses one self-describing stream of a codec family.
// Streams carry their own configuration, so a single decoder per family
// suffices regardless of how the encoder was configured; ctx and cfg carry
// observability and the execution budget exactly as in Codec.Decompress.
type DecodeFunc func(ctx context.Context, b []byte, cfg parallel.Config) (*grid.Field, error)

var (
	registryMu sync.RWMutex
	decoders   = map[string]DecodeFunc{}
)

// Register installs the decoder for a codec family (the part of a codec
// name before any '('). Codec packages call this from init with a method
// value, e.g. Register("zfp", MustNew(16).Decompress), so importing a codec
// package is what makes its streams decodable. Registering a family twice
// panics: it would silently shadow a codec.
func Register(family string, d DecodeFunc) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := decoders[family]; dup {
		panic(fmt.Sprintf("compress: decoder %q registered twice", family))
	}
	decoders[family] = d
}

// DecoderFor returns the decoder registered for a codec family. An unknown
// family wraps ErrCorrupt: the name came from an archive.
func DecoderFor(family string) (DecodeFunc, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	d, ok := decoders[family]
	if !ok {
		return nil, fmt.Errorf("compress: no decoder registered for family %q (have %v): %w",
			family, familiesLocked(), ErrCorrupt)
	}
	return d, nil
}

// Families lists the registered codec families, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return familiesLocked()
}

// familiesLocked is Families for callers already holding registryMu.
func familiesLocked() []string {
	out := make([]string, 0, len(decoders))
	for f := range decoders {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// CodecFamily strips the parameterisation from a codec name:
// "zfp(p=16)" -> "zfp".
func CodecFamily(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '(' {
			return name[:i]
		}
	}
	return name
}

func init() {
	Register("flate", NewFlate(6).Decompress)
}
