package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"lrm/internal/grid"
	"lrm/internal/parallel"
	"lrm/internal/reduce"
)

// Table3Row is one empirical complexity measurement: the reduce time of a
// model at a given matricized size, alongside the representation size.
type Table3Row struct {
	Method   string
	M, N     int
	Seconds  float64
	RepBytes int
}

// Table3Result realises Table III empirically: the paper states the
// factorisation complexities (PCA O(mn^2+n^3), SVD O(m^2n+mn^2+n^3),
// Wavelet O(4mn^2 log n)) and the storage contents; this experiment
// measures reduce wall time and representation size across growing matrix
// sizes and verifies the orderings those formulas imply (SVD slowest, the
// wavelet transform cheapest; SVD stores three matrices, PCA two).
type Table3Result struct {
	Rows []Table3Row
}

func init() {
	registerExperiment("table3",
		"Table III: empirical complexity/storage of PCA vs SVD vs Wavelet across matrix sizes",
		func(cfg Config) (Renderer, error) { return RunTable3(cfg) })
}

// table3Sizes returns the (m, n) sweep for a config scale.
func table3Sizes(cfg Config) [][2]int {
	base := [][2]int{{256, 32}, {1024, 48}, {2048, 64}}
	if cfg.Size > 0 {
		base = append(base, [2]int{8192, 96})
	}
	return base
}

// RunTable3 executes the Table III experiment.
func RunTable3(cfg Config) (*Table3Result, error) {
	cfg = cfg.withDefaults()
	out := &Table3Result{}
	for _, sz := range table3Sizes(cfg) {
		m, n := sz[0], sz[1]
		f := syntheticMatrix(m, n)
		for _, model := range []reduce.Model{reduce.PCA{}, reduce.SVD{}, reduce.Wavelet{}} {
			// Best of two runs to damp scheduler noise.
			best := -1.0
			var rep *reduce.Rep
			for trial := 0; trial < 2; trial++ {
				start := time.Now()
				r, err := model.Fit(context.Background(), f, parallel.Config{})
				if err != nil {
					return nil, fmt.Errorf("table3 %s %dx%d: %w", model.Name(), m, n, err)
				}
				sec := time.Since(start).Seconds()
				if best < 0 || sec < best {
					best = sec
					rep = r
				}
			}
			out.Rows = append(out.Rows, Table3Row{
				Method: modelBase(model.Name()), M: m, N: n,
				Seconds: best, RepBytes: rep.SizeBytes(),
			})
		}
	}
	return out, nil
}

// syntheticMatrix builds a moderately structured m x n field: a few strong
// modes plus noise-scale detail, so every model has real work to do.
func syntheticMatrix(m, n int) *grid.Field {
	f := grid.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(m)
			y := float64(j) / float64(n)
			f.Data[i*n+j] = 10*math.Sin(2*math.Pi*x)*math.Sin(4*math.Pi*y) +
				3*math.Sin(2*math.Pi*(3*x+y)) + 0.2*math.Sin(2*math.Pi*(17*x*y+0.3))
		}
	}
	return f
}

// Time looks up the reduce seconds for a (method, m) pair.
func (r *Table3Result) Time(method string, m int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Method == method && row.M == m {
			return row.Seconds, true
		}
	}
	return 0, false
}

// Render implements Renderer.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III (empirical): reduce time and representation size\n")
	b.WriteString("(paper complexities: PCA O(mn^2+n^3), SVD O(m^2n+mn^2+n^3), Wavelet O(4mn^2 log n))\n\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%dx%d", row.M, row.N), row.Method,
			fmt.Sprintf("%.4f", row.Seconds), fmt.Sprint(row.RepBytes),
		})
	}
	b.WriteString(table([]string{"matrix", "method", "reduce(s)", "rep bytes"}, rows))
	return b.String()
}

// CSV implements CSVer.
func (r *Table3Result) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method, fmt.Sprint(row.M), fmt.Sprint(row.N),
			fmt.Sprintf("%.6f", row.Seconds), fmt.Sprint(row.RepBytes),
		})
	}
	return csvRows([]string{"method", "m", "n", "reduce_sec", "rep_bytes"}, rows)
}

// modelBase strips a model name's parameter suffix: "pca(e=0.95)" -> "pca".
func modelBase(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '(' {
			return name[:i]
		}
	}
	return name
}
