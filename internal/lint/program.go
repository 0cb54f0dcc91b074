package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Program is the module-wide view the interprocedural analyzers
// (decodetaint, errtaxonomy) share: every loaded package, an index
// from function objects to their declarations, a static call graph built
// from go/types resolution, and the lazily computed per-function summaries
// the analyzers propagate to a fixed point.
//
// The driver (cmd/lrmlint) builds one Program over all loaded packages and
// attaches it to each Pass, so a package's analysis sees summaries for
// functions in every other package of the module. A Pass without an attached
// Program (the golden-test CheckFile path) lazily builds a single-package
// Program over itself — the analyzers then run in degraded, package-local
// mode, which is exactly what the self-contained fixtures exercise.
type Program struct {
	Passes []*Pass

	// Funcs maps every declared function and method in the analyzed
	// packages to its declaration site.
	Funcs map[*types.Func]*FuncInfo

	// decodeScope is the reporting set: functions whose names mark them as
	// decode entry points, plus every module function reachable from one
	// through the call graph that lives in a package containing such an
	// entry point. Encode-side helpers in the same packages stay out unless
	// a decode path actually reaches them.
	decodeScope map[*types.Func]bool

	taint    map[*types.Func]*taintSummary
	errClass map[*types.Func]errClass
}

// FuncInfo is one declared function with the package state needed to
// analyze its body.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pass *Pass
}

// decodeEntryRe matches the names that mark a function as a decode entry
// point handling untrusted input: the exported codec surface (Decompress*,
// Decode*) and the lowercase helpers that follow the same convention.
var decodeEntryRe = regexp.MustCompile(`^(Decompress|Decode|decompress|decode)`)

// NewProgram indexes the passes and builds the call graph and reporting
// sets. Summaries are computed lazily on first analyzer use.
func NewProgram(passes []*Pass) *Program {
	prog := &Program{
		Passes:      passes,
		Funcs:       map[*types.Func]*FuncInfo{},
		decodeScope: map[*types.Func]bool{},
	}
	for _, p := range passes {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.Funcs[obj] = &FuncInfo{Obj: obj, Decl: fd, Pass: p}
			}
		}
	}
	prog.buildDecodeScope()
	return prog
}

// buildDecodeScope seeds the reporting set with decode-named functions and
// grows it along call edges, but only into packages that declare a decode
// entry point of their own: a compress helper reached from Decompress is in
// scope, a grid or parallel utility reached the same way is not — those
// packages make no decode-contract promises.
func (prog *Program) buildDecodeScope() {
	decodePkg := map[*types.Package]bool{}
	var work []*types.Func
	for obj := range prog.Funcs {
		if decodeEntryRe.MatchString(obj.Name()) {
			prog.decodeScope[obj] = true
			decodePkg[obj.Pkg()] = true
			work = append(work, obj)
		}
	}
	sort.Slice(work, func(i, j int) bool { return work[i].FullName() < work[j].FullName() })
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		info := prog.Funcs[fn]
		if info == nil {
			continue
		}
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := info.Pass.calleeFunc(call)
			if callee == nil || prog.decodeScope[callee] || !decodePkg[callee.Pkg()] {
				return true
			}
			if _, declared := prog.Funcs[callee]; !declared {
				return true
			}
			prog.decodeScope[callee] = true
			work = append(work, callee)
			return true
		})
	}
}

// scopeFuncs returns the decode-scope functions declared in pass p, in
// source order, so analyzer output is deterministic.
func (prog *Program) scopeFuncs(p *Pass) []*FuncInfo {
	var out []*FuncInfo
	for obj := range prog.decodeScope {
		info := prog.Funcs[obj]
		if info != nil && info.Pass == p {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// calleeFunc resolves a call expression to the function object it invokes,
// for both plain calls (ident) and package or method calls (selector).
// Conversions, builtins, and calls through function-typed values resolve to
// nil.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// calleeName returns the bare name a call is spelled with (the final
// selector element or the identifier), or "" for anonymous callees. Used
// for the name-based heuristics (CheckedAlloc, Classify, ReadBits) that
// must also work in fixtures where the real packages are not importable.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// localObj resolves an identifier to its object, following both uses and
// defining occurrences.
func (p *Pass) localObj(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// isByteSliceType reports whether t is []byte (or []uint8).
func isByteSliceType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}

// isIntegerType reports whether t is an integer kind (the only types the
// size-parameter summaries track).
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isStreamReaderType reports whether t is a pointer to a named type called
// Reader — the bitstream.Reader shape. Values read through such a parameter
// are decoded stream content.
func isStreamReaderType(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && strings.HasSuffix(named.Obj().Name(), "Reader")
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
