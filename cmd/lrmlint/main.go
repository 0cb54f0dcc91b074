// Command lrmlint runs the repo-specific static-analysis suite over the
// module's packages and exits non-zero when any analyzer reports a finding.
//
// Usage:
//
//	go run ./cmd/lrmlint ./...
//	go run ./cmd/lrmlint -rules floatcmp,goroutine ./internal/compress/...
//	go run ./cmd/lrmlint -tests ./internal/mpi
//
// Diagnostics print as file:line:col: [rule] message. Suppress a single
// finding with a `//lrmlint:ignore <rule> <reason>` comment on the same
// line or the line above. Exit status: 0 clean, 1 findings, 2 usage or
// load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lrm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lrmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated analyzer subset (default: all)")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array (machine-readable)")
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations alongside diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.ByName(*rules)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader.IncludeTests = *tests

	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// One module-wide Program shared by every pass: the interprocedural
	// analyzers (decodetaint, errtaxonomy) see call edges and
	// function summaries across package boundaries.
	passes := make([]*lint.Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = pkg.Pass
	}
	prog := lint.NewProgram(passes)
	for _, pass := range passes {
		pass.SetProgram(prog)
	}

	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, d := range lint.RunAnalyzers(pkg.Pass, analyzers) {
			if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				d.Pos.Filename = rel
			}
			diags = append(diags, d)
		}
	}

	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *github {
		// GitHub Actions annotation format; the runner attaches these to
		// the diff view. Emitted on stderr so -json output stays parseable.
		for _, d := range diags {
			fmt.Fprintf(stderr, "::error file=%s,line=%d,col=%d,title=lrmlint(%s)::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lrmlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// jsonDiag is the stable machine-readable diagnostic shape.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// writeJSON emits diagnostics as an indented JSON array ([] when clean), so
// downstream tooling can consume the output without parsing text lines.
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lrmlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
