package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxFlow flags context drops in the *Ctx call chain, the PR-5
// tracing contract: once a function accepts a context.Context, spans and
// pprof labels flow through it, and detaching re-roots the trace tree.
//
// Two shapes are reported inside any function (or closure) that has a
// context.Context parameter:
//
//   - a call to context.Background() or context.TODO() — below the entry
//     layer the surrounding ctx must be passed, not replaced. Entry-layer
//     wrappers (`func Decompress(b) { return DecompressCtx(context.
//     Background(), b) }`) have no ctx parameter and are untouched;
//
//   - a call to a function or method whose Ctx variant exists — resolved
//     type-aware: a package-level `F` with a package-level `FCtx` taking a
//     leading context, or a method `m.F` whose receiver type also has
//     `FCtx`. Interface values without a Ctx method in their method set are
//     not flagged.
//
// Closures without their own ctx parameter inherit the enclosing scope's
// obligation (they capture the ctx); closures with one are their own scope.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "*Ctx function dropping its context: Background()/TODO() below the entry layer, or a non-Ctx call where a Ctx variant exists",
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
			return true
		}
		if variant := droppedCtxVariant(p, call); variant != "" {
			p.Reportf(call.Pos(),
				"call drops the surrounding ctx; use %s", variant)
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

// droppedCtxVariant returns the name of the Ctx variant a call should have
// used, or "" when the call is fine: the callee already takes a context, or
// no variant exists for it.
func droppedCtxVariant(p *Pass, call *ast.CallExpr) string {
	callee := p.calleeFunc(call)
	if callee == nil || calleeTakesContext(callee) {
		return ""
	}
	name := callee.Name() + "Ctx"
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
		// Method: look the variant up in the receiver's method set. For
		// interface receivers this only fires when the interface itself
		// declares the variant — assertion fallbacks stay legal.
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), name)
		if v, ok := obj.(*types.Func); ok && calleeTakesContext(v) {
			return recvString(recv.Type()) + "." + name
		}
		return ""
	}
	if callee.Pkg() == nil {
		return ""
	}
	if v, ok := callee.Pkg().Scope().Lookup(name).(*types.Func); ok && calleeTakesContext(v) {
		if callee.Pkg().Name() != "" && p.Pkg != callee.Pkg() {
			return callee.Pkg().Name() + "." + name
		}
		return name
	}
	return ""
}

// calleeTakesContext reports whether any parameter of fn is a
// context.Context.
func calleeTakesContext(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func recvString(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
