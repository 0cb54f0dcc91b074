// Package lint implements lrmlint, a repo-specific static-analysis suite
// built on the standard library's go/ast, go/parser, and go/types — no
// module dependencies. The analyzers encode correctness rules that matter
// for an error-bounded compression codebase:
//
//   - floatcmp:   naked float equality (==/!=) between non-constant operands
//   - ignorederr: discarded error results from Write/Encode/Decode-family calls
//   - mutexcopy:  by-value copies of types containing sync.Mutex/WaitGroup
//   - goroutine:  goroutines launched with no completion/escape mechanism
//   - deadassign: `_ = expr` blank assignments masking dead computation
//   - obsspan:    obs.Start/StartChild spans without End() on every return path
//   - hotalloc:   make() allocations inside hot-path kernels (the canonical
//     list in hotalloc.go plus //lrm:hotpath-marked functions) that should
//     draw scratch from the internal/parallel arenas instead
//   - ctxflow:    functions holding a context.Context that replace it with
//     context.Background()/TODO() instead of passing it down
//
// plus two interprocedural analyzers built on module-wide function
// summaries (call-graph construction from go/types, per-function
// taint/error summaries, fixed-point propagation — see program.go):
//
//   - decodetaint: decode-path allocation sizes or index bounds derived
//     from untrusted input without CheckedAlloc/NewCheckedField or a guard
//   - errtaxonomy: decode-path error returns that cannot wrap an
//     ErrTruncated/ErrCorrupt/ErrHeader sentinel
//
// A diagnostic can be suppressed with a trailing or preceding comment
//
//	//lrmlint:ignore <rule> <reason>
//
// which is itself part of the reviewable record: suppressions are explicit
// per-site waivers, not global config.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run and collects its diagnostics.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package

	rule       string
	diags      []Diagnostic
	suppressed map[string]map[int]bool // filename -> line -> suppressed rules encoded "line:rule"
	ignores    []ignoreDirective
	prog       *Program
}

// SetProgram attaches a module-wide Program so the interprocedural
// analyzers see summaries for every package of the module. The driver calls
// this once after loading.
func (p *Pass) SetProgram(prog *Program) { p.prog = prog }

// Program returns the attached module-wide Program, lazily building a
// single-package Program over this pass when none was attached (the
// standalone CheckFile path used by golden tests).
func (p *Pass) Program() *Program {
	if p.prog == nil {
		p.prog = NewProgram([]*Pass{p})
	}
	return p.prog
}

type ignoreDirective struct {
	file string
	line int
	rule string
}

// NewPass builds a Pass and indexes //lrmlint:ignore directives.
func NewPass(fset *token.FileSet, files []*ast.File, info *types.Info, pkg *types.Package) *Pass {
	p := &Pass{Fset: fset, Files: files, Info: info, Pkg: pkg}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lrmlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lrmlint:ignore"))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, rule := range strings.Split(fields[0], ",") {
					p.ignores = append(p.ignores, ignoreDirective{file: pos.Filename, line: pos.Line, rule: rule})
				}
			}
		}
	}
	return p
}

// Reportf records a diagnostic for the current analyzer unless an ignore
// directive on the same line or the line directly above suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, ig := range p.ignores {
		if ig.file == position.Filename && (ig.line == position.Line || ig.line == position.Line-1) &&
			(ig.rule == p.rule || ig.rule == "all") {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{Pos: position, Rule: p.rule, Message: fmt.Sprintf(format, args...)})
}

// RunAnalyzers applies each analyzer to the pass and returns the combined
// diagnostics in file/line order.
func RunAnalyzers(p *Pass, analyzers []*Analyzer) []Diagnostic {
	for _, a := range analyzers {
		p.rule = a.Name
		a.Run(p)
	}
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i], p.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return p.diags
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerFloatCmp,
		AnalyzerIgnoredErr,
		AnalyzerMutexCopy,
		AnalyzerGoroutine,
		AnalyzerDeadAssign,
		AnalyzerObsSpan,
		AnalyzerHotAlloc,
		AnalyzerDecodeTaint,
		AnalyzerErrTaxonomy,
		AnalyzerCtxFlow,
	}
}

// ByName resolves a comma-separated rule list ("floatcmp,goroutine") to
// analyzers; an empty spec selects the whole suite.
func ByName(spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
