package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"lrm/internal/compress"
	"lrm/internal/compress/fpc"
	"lrm/internal/compress/sz"
	"lrm/internal/compress/zfp"
)

// httpError is a handler failure that already knows its status code. Every
// negotiation or decode failure maps to one, so handlers never improvise a
// status and malformed input can never surface as a 5xx.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// param reads a negotiation parameter from the query string, falling back
// to the X-Lrm-<Name> header — query wins so a curl one-liner can override
// client-default headers.
func param(r *http.Request, name string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.Header.Get("X-Lrm-" + http.CanonicalHeaderKey(name))
}

func intParam(r *http.Request, name string, def int) (int, *httpError) {
	v := param(r, name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badRequest("parameter %s: %q is not an integer", name, v)
	}
	return n, nil
}

func floatParam(r *http.Request, name string, def float64) (float64, *httpError) {
	v := param(r, name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badRequest("parameter %s: %q is not a number", name, v)
	}
	return f, nil
}

// negotiateCodec builds the codec a compress request asked for. The family
// comes from ?codec= (default zfp); each family exposes its error-bound or
// level knob:
//
//	zfp:   precision=P (default 16)  | accuracy=TOL | rate=BITS
//	sz:    mode=abs|rel|pwrel (default abs), bound=EB (default 1e-5)
//	fpc:   level=L (default 12; lossless)
//	flate: level=L (default 6; lossless baseline)
//
// Constructor validation is surfaced verbatim as a 400 — the codec
// packages already own the legal parameter ranges.
func negotiateCodec(r *http.Request) (compress.Codec, *httpError) {
	family := param(r, "codec")
	if family == "" {
		family = "zfp"
	}
	switch family {
	case "zfp":
		if param(r, "accuracy") != "" {
			tol, herr := floatParam(r, "accuracy", 0)
			if herr != nil {
				return nil, herr
			}
			c, err := zfp.NewAccuracy(tol)
			if err != nil {
				return nil, badRequest("%v", err)
			}
			return c, nil
		}
		if param(r, "rate") != "" {
			rate, herr := intParam(r, "rate", 0)
			if herr != nil {
				return nil, herr
			}
			c, err := zfp.NewRate(rate)
			if err != nil {
				return nil, badRequest("%v", err)
			}
			return c, nil
		}
		p, herr := intParam(r, "precision", 16)
		if herr != nil {
			return nil, herr
		}
		c, err := zfp.New(p)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return c, nil
	case "sz":
		var mode sz.Mode
		switch m := param(r, "mode"); m {
		case "", "abs":
			mode = sz.Abs
		case "rel":
			mode = sz.ValueRangeRel
		case "pwrel":
			mode = sz.PointwiseRel
		default:
			return nil, badRequest("sz mode %q (want abs, rel, or pwrel)", m)
		}
		bound, herr := floatParam(r, "bound", 1e-5)
		if herr != nil {
			return nil, herr
		}
		c, err := sz.New(mode, bound)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return c, nil
	case "fpc":
		level, herr := intParam(r, "level", 12)
		if herr != nil {
			return nil, herr
		}
		c, err := fpc.New(level)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		return c, nil
	case "flate":
		level, herr := intParam(r, "level", 6)
		if herr != nil {
			return nil, herr
		}
		if level < 1 || level > 9 {
			return nil, badRequest("flate level %d out of range [1,9]", level)
		}
		return compress.NewFlate(level), nil
	}
	return nil, badRequest("unknown codec family %q (want zfp, sz, fpc, or flate)", family)
}

// negotiateDims parses the field shape from ?dims= or X-Lrm-Dims
// ("64,64,64", outermost first) and refuses more than compress.MaxElements
// values before any body byte is read. The body length is validated
// against the product as the body streams in, by grid.ReadField.
func negotiateDims(r *http.Request) ([]int, *httpError) {
	v := param(r, "dims")
	if v == "" {
		return nil, badRequest("missing dims (query ?dims=… or header X-Lrm-Dims, e.g. 64,64,64)")
	}
	parts := strings.Split(v, ",")
	if len(parts) < 1 || len(parts) > 3 {
		return nil, badRequest("dims %q: rank must be 1..3", v)
	}
	dims := make([]int, len(parts))
	total := 1
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, badRequest("dims %q: extent %q is not a positive integer", v, p)
		}
		if n > compress.MaxElements/total {
			return nil, badRequest("dims %q: more than %d values", v, compress.MaxElements)
		}
		dims[i] = n
		total *= n
	}
	return dims, nil
}

// boolParam interprets a flag-style parameter: present and not one of
// ""/"0"/"false" means on.
func boolParam(r *http.Request, name string) bool {
	switch param(r, name) {
	case "", "0", "false":
		return false
	}
	return true
}
