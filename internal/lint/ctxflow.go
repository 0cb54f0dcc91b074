package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxFlow flags context drops in the call chain, the tracing
// contract: once a function accepts a context.Context, spans and pprof
// labels flow through it, and detaching re-roots the trace tree.
//
// Inside any function (or closure) that has a context.Context parameter, a
// call to context.Background() or context.TODO() is reported: below the
// entry layer the surrounding ctx must be passed, not replaced. Entry-layer
// code (a main, a test, a helper with no ctx parameter) may root a fresh
// context and is untouched.
//
// Closures without their own ctx parameter inherit the enclosing scope's
// obligation (they capture the ctx); closures with one are their own scope.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "function holding a context.Context that replaces it with Background()/TODO() instead of passing it down",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && hasCtxParamTyped(p, fn.Type) {
					checkCtxScope(p, fn.Body)
					return false // nested lits handled inside
				}
			case *ast.FuncLit:
				if hasCtxParamTyped(p, fn.Type) {
					checkCtxScope(p, fn.Body)
					return false
				}
			}
			return true
		})
	}
}

// hasCtxParamTyped reports whether the signature takes a context.Context,
// resolved through type info with a syntactic fallback for packages the
// loader could not fully type-check.
func hasCtxParamTyped(p *Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := p.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return hasCtxParam(ft)
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxScope walks one ctx-bearing scope. Nested literals with their own
// ctx parameter are separate scopes; literals without one are part of this
// scope (they capture ctx) and are traversed inline.
func checkCtxScope(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if hasCtxParamTyped(p, lit.Type) {
				checkCtxScope(p, lit.Body)
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, fromContextPkg := contextConstructor(p, call); fromContextPkg {
			p.Reportf(call.Pos(),
				"context.%s() below the entry layer detaches this call chain from its context; pass the surrounding ctx", name)
		}
		return true
	})
}

// contextConstructor reports whether the call is context.Background() or
// context.TODO(), resolved through the package object when available so a
// local variable named `context` cannot confuse it.
func contextConstructor(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj := p.Info.Uses[id]; obj != nil {
		pkg, ok := obj.(*types.PkgName)
		return sel.Sel.Name, ok && pkg.Imported().Path() == "context"
	}
	return sel.Sel.Name, id.Name == "context"
}
