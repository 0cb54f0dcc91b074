package core

import (
	"fmt"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
)

// Importing the codec packages registers their decoders, so core decodes
// every built-in family.

// PaperCodecs returns the paper's standard codec configurations
// (Section IV-B / V-B): primary codec for original data and rep, and the
// looser delta codec.
//
//	zfp:  16-bit precision primary, 8-bit delta
//	sz:   1e-5 pointwise-relative primary, 1e-3 delta
//	fpc:  level 20 (lossless; same for both roles)
func PaperCodecs(family string) (data, delta compress.Codec, err error) {
	switch family {
	case "zfp":
		return zfp.MustNew(16), zfp.MustNew(8), nil
	case "sz":
		// SZ 1.4's default relative mode bounds error by ratio x value
		// range; the delta codec gets the paper's looser 1e-3 ratio.
		return sz.MustNew(sz.ValueRangeRel, 1e-5), sz.MustNew(sz.ValueRangeRel, 1e-3), nil
	case "fpc":
		c := fpc.MustNew(20)
		return c, c, nil
	case "flate":
		c := compress.NewFlate(6)
		return c, c, nil
	}
	return nil, nil, fmt.Errorf("core: unknown codec family %q", family)
}
