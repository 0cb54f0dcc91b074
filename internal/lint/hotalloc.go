package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHotAlloc flags make() allocations inside hot-path kernels. The
// batch kernels behind the BENCH gate — the zfp plane coders and
// transforms, the sz quantize/dequant rows, the huffman pack and decode
// inner loops — run per block or per symbol in steady state, where a
// single make() turns into millions of allocations per field and shows up
// directly in allocs/op. Scratch in those functions must come from the
// internal/parallel arenas (Floats/Int64s/Uint64s/Ints/Bytes) or be
// hoisted into per-worker state by the caller.
//
// A function is hot when it appears in hotPathFuncs (the repo's canonical
// kernel list, keyed by import path) or when its doc comment carries the
// //lrm:hotpath directive. make() calls that refill a sync.Pool — a
// composite literal's New field or an assignment to pool.New — are the
// arena's own slow path and are exempt.
var AnalyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "make() allocation inside a hot-path kernel",
	Run:  runHotAlloc,
}

// hotPathFuncs is the canonical hot-kernel list: every function here is on
// the per-block or per-symbol path of a codec, the per-pair path of the
// Jacobi SVD and EigenSym, the per-row path of the covariance, or the
// per-row and per-level path of the Haar transforms, and must stay
// allocation free in steady state. Methods are listed by bare name.
var hotPathFuncs = map[string]map[string]bool{
	"lrm/internal/compress/zfp": {
		"encodePlane": true, "decodePlane": true,
		"encodePlanes": true, "decodePlanes": true, "decodePlanes64": true,
		"transpose64": true, "transposeTop": true, "transposeTop16": true, "transposeLow": true,
		"transformForward": true, "transformInverse": true,
		"fwdLift": true, "invLift": true, "lift4": true, "invLift4": true,
		"gather": true, "scatter": true,
	},
	"lrm/internal/compress/sz": {
		"quantizeAt": true, "quantizeRow1": true, "quantizeRow2": true,
		"quantizeRow3": true, "quantizeRows": true, "quantizePoint": true,
		"dequantRow1": true, "dequantWaveRow2": true, "dequantWaveRow3": true,
		"dequantRows": true, "lorenzoPredict": true, "curveFitPredict": true,
	},
	"lrm/internal/huffman": {
		"pack": true, "decodeOneSlow": true, "decodeFast": true,
		"buildMultiTable": true, "fillWindows": true,
	},
	"lrm/internal/linalg": {
		"jacobiDots": true, "jacobiRotate": true, "jacobiRotateDot": true,
		"eigenRotate": true, "planeRotate": true,
		"covTriangleRow": true, "covAxpy": true,
	},
	"lrm/internal/wavelet": {
		"forwardStep": true, "inverseStep": true,
		"forwardStepPanel": true, "inverseStepPanel": true,
		"forwardLevels": true, "inverseLevels": true, "bandLadder": true,
		"Forward1D": true, "Inverse1D": true, "Forward2D": true, "Inverse2D": true,
		"Forward2DNonstandard": true, "Inverse2DNonstandard": true,
	},
}

// hotPathDirective marks a function hot outside the canonical list.
const hotPathDirective = "//lrm:hotpath"

func runHotAlloc(p *Pass) {
	listed := hotPathFuncs[p.Pkg.Path()]
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasHotDirective(fd) && !listed[fd.Name.Name] {
				continue
			}
			exempt := poolRefillRanges(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "make" {
					return true
				}
				if b, ok := p.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
					return true
				}
				for _, r := range exempt {
					if call.Pos() >= r[0] && call.Pos() < r[1] {
						return true
					}
				}
				p.Reportf(call.Pos(), "hot-path function %s allocates with make; take scratch from an internal/parallel arena (Floats/Int64s/Uint64s/Ints/Bytes) or hoist the allocation into per-worker state", fd.Name.Name)
				return true
			})
		}
	}
}

// hasHotDirective reports whether fd's doc comment carries //lrm:hotpath.
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotPathDirective {
			return true
		}
	}
	return false
}

// poolRefillRanges collects the source ranges of function literals that
// serve as a sync.Pool's New callback — either a New field in a sync.Pool
// composite literal or an assignment to pool.New. Allocations inside those
// literals ARE the arena refill path and must not be flagged.
func poolRefillRanges(p *Pass, body *ast.BlockStmt) [][2]token.Pos {
	var ranges [][2]token.Pos
	add := func(fl *ast.FuncLit) {
		ranges = append(ranges, [2]token.Pos{fl.Pos(), fl.End()})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[n]
			if !ok || !isSyncPool(tv.Type) {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || key.Name != "New" {
					continue
				}
				if fl, ok := kv.Value.(*ast.FuncLit); ok {
					add(fl)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "New" || i >= len(n.Rhs) {
					continue
				}
				tv, ok := p.Info.Types[sel.X]
				if !ok || !isSyncPool(tv.Type) {
					continue
				}
				if fl, ok := n.Rhs[i].(*ast.FuncLit); ok {
					add(fl)
				}
			}
		}
		return true
	})
	return ranges
}

// isSyncPool reports whether t (possibly behind a pointer) is sync.Pool.
func isSyncPool(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}
