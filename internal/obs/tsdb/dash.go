package tsdb

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"time"
)

// The dashboard is deliberately self-contained: server-rendered HTML with
// inline SVG sparklines and inline CSS, no JavaScript, no external assets
// — it must render inside an air-gapped cluster and survive being saved as
// a CI artifact. Counter series are drawn as per-second rates (the raw
// cumulative line is a ramp that says nothing); gauges draw as stored.

// dashSeries is one rendered row.
type dashSeries struct {
	Name    string
	Kind    string
	Last    string
	Min     string
	Max     string
	Spark   template.HTML
	Samples int
}

// dashGroup is one collapsible section of related series.
type dashGroup struct {
	Name   string
	Open   bool
	Series []dashSeries
}

type dashDoc struct {
	GeneratedAt   string
	IntervalMs    int64
	Samples       int64
	SeriesCount   int
	DroppedSeries int64
	Groups        []dashGroup
}

// openGroups are the sections expanded by default: the serving-path view
// the SLO work targets. Everything else (per-stage kernels, internals)
// stays one click away.
var openGroups = map[string]bool{
	"serve": true, "slo": true, "quality": true, "runtime": true,
}

const sparkW, sparkH = 240, 28

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<meta http-equiv="refresh" content="5">
<title>lrm telemetry</title>
<style>
body{font:13px/1.5 system-ui,sans-serif;margin:1.5em;background:#fafafa;color:#222}
h1{font-size:1.2em} summary{cursor:pointer;font-weight:600;padding:.3em 0}
table{border-collapse:collapse;width:100%;max-width:72em}
td,th{padding:2px 10px;text-align:left;white-space:nowrap;border-bottom:1px solid #eee}
td.num{text-align:right;font-variant-numeric:tabular-nums}
svg{vertical-align:middle} .meta{color:#777}
code{background:#f0f0f0;padding:0 3px;border-radius:3px}
</style></head><body>
<h1>lrm telemetry history</h1>
<p class="meta">generated {{.GeneratedAt}} · interval {{.IntervalMs}} ms ·
{{.Samples}} sampling passes · {{.SeriesCount}} series{{if .DroppedSeries}} ·
<strong>{{.DroppedSeries}} series dropped by the MaxSeries cap</strong>{{end}} ·
raw data at <code>/debug/history</code></p>
{{range .Groups}}<details{{if .Open}} open{{end}}><summary>{{.Name}} ({{len .Series}})</summary>
<table><tr><th>series</th><th>kind</th><th></th><th>last</th><th>min</th><th>max</th><th>samples</th></tr>
{{range .Series}}<tr><td>{{.Name}}</td><td>{{.Kind}}</td><td>{{.Spark}}</td>
<td class="num">{{.Last}}</td><td class="num">{{.Min}}</td><td class="num">{{.Max}}</td>
<td class="num">{{.Samples}}</td></tr>
{{end}}</table></details>
{{end}}</body></html>
`))

// WriteDash renders the dashboard HTML — the shared body of the
// /debug/dash handler and the -dash file dump.
func (s *Store) WriteDash(w io.Writer) error {
	series := s.Eval(Query{Rate: true, MaxPoints: sparkW / 2}, time.Now())

	groups := map[string]*dashGroup{}
	var order []string
	for _, sn := range series {
		g := sn.Name
		if i := strings.IndexByte(g, '.'); i > 0 {
			g = g[:i]
		}
		dg := groups[g]
		if dg == nil {
			dg = &dashGroup{Name: g, Open: openGroups[g]}
			groups[g] = dg
			order = append(order, g)
		}
		dg.Series = append(dg.Series, renderSeries(sn))
	}
	sort.Slice(order, func(i, j int) bool {
		// Open groups first, then alphabetical.
		oi, oj := openGroups[order[i]], openGroups[order[j]]
		if oi != oj {
			return oi
		}
		return order[i] < order[j]
	})

	doc := dashDoc{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		IntervalMs:    s.cfg.Interval.Milliseconds(),
		Samples:       s.Samples(),
		SeriesCount:   len(series),
		DroppedSeries: s.DroppedSeries(),
	}
	for _, g := range order {
		doc.Groups = append(doc.Groups, *groups[g])
	}
	return dashTmpl.Execute(w, doc)
}

// DashHandler serves the self-contained HTML dashboard.
func (s *Store) DashHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = s.WriteDash(w)
	})
}

func renderSeries(sn SeriesSnap) dashSeries {
	ds := dashSeries{Name: sn.Name, Kind: sn.Kind, Samples: len(sn.Points)}
	if sn.Kind == KindCounter.String() {
		ds.Kind = "rate/s"
	}
	if len(sn.Points) == 0 {
		ds.Last, ds.Min, ds.Max = "–", "–", "–"
		return ds
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range sn.Points {
		lo = math.Min(lo, p[1])
		hi = math.Max(hi, p[1])
	}
	ds.Last = formatVal(sn.Points[len(sn.Points)-1][1])
	ds.Min = formatVal(lo)
	ds.Max = formatVal(hi)
	ds.Spark = sparkline(sn.Points, lo, hi)
	return ds
}

// sparkline renders the points as an inline SVG polyline, x spread evenly
// (the sampler's cadence is regular enough that time-proportional x adds
// nothing but float noise) and y normalised to [lo, hi].
func sparkline(pts [][2]float64, lo, hi float64) template.HTML {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d">`, sparkW, sparkH, sparkW, sparkH)
	span := hi - lo
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		span = 1
	}
	b.WriteString(`<polyline fill="none" stroke="#3366cc" stroke-width="1.2" points="`)
	n := len(pts)
	for i, p := range pts {
		x := float64(sparkW-2)*float64(i)/float64(max(n-1, 1)) + 1
		y := float64(sparkH-3)*(1-(p[1]-lo)/span) + 1.5
		if math.IsNaN(y) || math.IsInf(y, 0) {
			y = float64(sparkH) / 2
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f,%.1f", x, y)
	}
	b.WriteString(`"/></svg>`)
	return template.HTML(b.String())
}

// formatVal prints a value compactly with SI-ish thousands suffixes, the
// only formatting a sparkline label row needs.
func formatVal(v float64) string {
	av := math.Abs(v)
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return "–"
	case av >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	//lrmlint:ignore floatcmp exact integralness check picks the label format, not a numeric decision
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
