package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// promName maps a registry metric name to a legal Prometheus metric name:
// an "lrm_" prefix plus the name with every character outside
// [a-zA-Z0-9_:] rewritten to '_'.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("lrm_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promNames maps every registry name in names to a unique Prometheus name.
// Sanitization is lossy ("a.b" and "a-b" both become "lrm_a_b"), and two
// series under one Prometheus name corrupt a scrape; when a sanitized name
// collides, every member of the colliding group gets a "_<fnv32a-hex>"
// suffix derived from its original name. Hashing all members (not just the
// latecomers) keeps the mapping deterministic regardless of registration
// or iteration order.
func promNames(names []string) map[string]string {
	out := make(map[string]string, len(names))
	hits := make(map[string]int, len(names))
	for _, n := range names {
		pn := promName(n)
		out[n] = pn
		hits[pn]++
	}
	for _, n := range names {
		if hits[out[n]] > 1 {
			out[n] = fmt.Sprintf("%s_%08x", out[n], fnv32a(n))
		}
	}
	return out
}

// fnv32a is the FNV-1a hash, inlined to keep the disambiguation suffix
// cheap and dependency-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// descriptions is the metric help-text registry backing # HELP exposition.
var descriptions = struct {
	sync.RWMutex
	m map[string]string
}{m: map[string]string{}}

// Describe registers a one-line help text for the metric with the given
// registry name, emitted as a # HELP line by WriteProm. Describing a
// metric is optional and may happen before or after the metric itself is
// registered; the last description wins.
func Describe(name, help string) {
	descriptions.Lock()
	defer descriptions.Unlock()
	descriptions.m[name] = help
}

// description returns the registered help text for name, or "".
func description(name string) string {
	descriptions.RLock()
	defer descriptions.RUnlock()
	return descriptions.m[name]
}

// promHelpEscaper escapes help text per the 0.0.4 text format: backslash
// and newline are the only characters HELP lines must escape.
var promHelpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WriteProm writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled buckets with _sum and
// _count series. Metrics with a registered description (Describe) get a
// # HELP line; sanitized-name collisions are disambiguated (promNames).
// Output order is deterministic (sorted by metric name).
func WriteProm(w io.Writer) error {
	snap := Snapshot()
	var all []string
	all = append(all, sortedKeys(snap.Counters)...)
	all = append(all, sortedKeys(snap.Gauges)...)
	all = append(all, sortedKeys(snap.Floats)...)
	all = append(all, sortedKeys(snap.Histograms)...)
	pns := promNames(all)
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	help := func(name, pn string) {
		if d := description(name); d != "" {
			p("# HELP %s %s\n", pn, promHelpEscaper.Replace(d))
		}
	}
	for _, name := range sortedKeys(snap.Counters) {
		pn := pns[name]
		help(name, pn)
		p("# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := pns[name]
		help(name, pn)
		p("# TYPE %s gauge\n%s %d\n", pn, pn, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Floats) {
		pn := pns[name]
		help(name, pn)
		p("# TYPE %s gauge\n%s %g\n", pn, pn, snap.Floats[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[name]
		pn := pns[name]
		help(name, pn)
		p("# TYPE %s histogram\n", pn)
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			p("%s_bucket{le=\"%d\"} %d\n", pn, bound, cum)
		}
		cum += h.Counts[len(h.Bounds)]
		p("%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
		p("%s_sum %d\n", pn, h.Sum)
		p("%s_count %d\n", pn, h.Count)
		// Exemplars ride as comment lines: the classic 0.0.4 text format has
		// no exemplar syntax, and comments are ignored by every parser, so
		// the trace linkage is visible to humans without breaking scrapes.
		for i, e := range h.Exemplars {
			if e == nil {
				continue
			}
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			p("# exemplar %s_bucket{le=\"%s\"} trace_id=\"%s\" value=%d\n", pn, le, e.TraceID, e.Value)
		}
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
