package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file implements the decode-taint dataflow engine shared by the
// decodetaint analyzer: per-function taint summaries over the module call
// graph, propagated to a fixed point.
//
// The model is deliberately lexical inside a function (statements are
// considered in source order, like the obsspan analyzer) and summary-based
// across functions:
//
//   sources    []byte parameters of decode-scope functions, values read
//              from streams (binary.Uvarint/Varint, binary.XxxEndian.UintN,
//              ReadBit/ReadBits-style methods, NewReader), and results of
//              callees whose summaries mark them tainted;
//   sanitizers a call to CheckedAlloc / NewCheckedField mentioning the
//              value, or a relational comparison (< <= > >=) mentioning it
//              in an if/for/switch condition — the shapes a bounds guard
//              takes in this codebase;
//   sinks      make() lengths and capacities, the length passed to a
//              parallel arena getter (Floats, Uint64s, ...: a make behind
//              a pool, in a package with no decode scope of its own),
//              index/slice bounds, and arguments flowing into a callee
//              parameter that the callee's summary marks size-sensitive.
//
// Taint is tracked per identifier object. Writes through an index
// expression taint the container (contents-taint); range statements
// propagate container taint to the element variable; len() and cap() of a
// tainted value are trusted (the actual input length is ground truth).
// Struct fields are not tracked — a value laundered through a field read
// drops its taint, a documented false-negative trade so the repo-wide gate
// stays quiet.

// taintLabel is the label set of one value: derived from untrusted decoded
// input, and/or derived from specific parameters of the enclosing function
// (the latter feed the size-parameter summaries).
type taintLabel struct {
	untrusted bool
	params    map[int]bool
}

func (l *taintLabel) empty() bool { return l == nil || (!l.untrusted && len(l.params) == 0) }

func (l *taintLabel) merge(o *taintLabel) {
	if o == nil {
		return
	}
	l.untrusted = l.untrusted || o.untrusted
	for i := range o.params {
		if l.params == nil {
			l.params = map[int]bool{}
		}
		l.params[i] = true
	}
}

func (l *taintLabel) clone() *taintLabel {
	c := &taintLabel{}
	c.merge(l)
	return c
}

func (l *taintLabel) equal(o *taintLabel) bool {
	if l.untrusted != o.untrusted || len(l.params) != len(o.params) {
		return false
	}
	for i := range l.params {
		if !o.params[i] {
			return false
		}
	}
	return true
}

// taintSummary is the interprocedural contract of one function: which
// results carry decoded-input taint (or pass specific parameters through),
// and which integer parameters reach an unguarded allocation or index sink
// inside it.
type taintSummary struct {
	results    []taintLabel
	sizeParams map[int]bool
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if len(s.results) != len(o.results) || len(s.sizeParams) != len(o.sizeParams) {
		return false
	}
	for i := range s.results {
		if !s.results[i].equal(&o.results[i]) {
			return false
		}
	}
	for i := range s.sizeParams {
		if !o.sizeParams[i] {
			return false
		}
	}
	return true
}

// taintSummaries computes summaries for every decode-scope function,
// iterating until they stop changing so taint flows through helper chains
// of any depth (bounded at a small pass count as a cycle backstop).
func (prog *Program) taintSummaries() map[*types.Func]*taintSummary {
	if prog.taint != nil {
		return prog.taint
	}
	prog.taint = map[*types.Func]*taintSummary{}
	var fns []*FuncInfo
	for obj := range prog.decodeScope {
		if info := prog.Funcs[obj]; info != nil {
			fns = append(fns, info)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Obj.FullName() < fns[j].Obj.FullName() })
	for pass := 0; pass < 5; pass++ {
		changed := false
		for _, fn := range fns {
			sum := prog.analyzeTaint(fn, false)
			if old, ok := prog.taint[fn.Obj]; !ok || !old.equal(sum) {
				prog.taint[fn.Obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return prog.taint
}

// taintState is the per-function analysis state.
type taintState struct {
	prog   *Program
	pass   *Pass
	fn     *FuncInfo
	report bool

	paramIndex map[types.Object]int
	labels     map[types.Object]*taintLabel
	sanitized  map[types.Object]bool
	closures   map[types.Object]*taintSummary
	seenLits   map[*ast.FuncLit]bool
	summary    *taintSummary
}

// analyzeTaint runs the dataflow over one function body, returning its
// summary and (when report is set) emitting diagnostics for sinks fed by
// untrusted values.
func (prog *Program) analyzeTaint(fn *FuncInfo, report bool) *taintSummary {
	st := &taintState{
		prog:       prog,
		pass:       fn.Pass,
		fn:         fn,
		report:     report,
		paramIndex: map[types.Object]int{},
		labels:     map[types.Object]*taintLabel{},
		sanitized:  map[types.Object]bool{},
		closures:   map[types.Object]*taintSummary{},
		seenLits:   map[*ast.FuncLit]bool{},
		summary:    &taintSummary{sizeParams: map[int]bool{}},
	}
	sig := fn.Obj.Type().(*types.Signature)
	st.summary.results = make([]taintLabel, sig.Results().Len())

	// Seed parameters. Byte slices and stream readers are untrusted decoded
	// input by definition of the scope; every parameter additionally carries
	// its own param label so pass-through and size-sensitivity propagate to
	// callers.
	idx := 0
	if fn.Decl.Type.Params != nil {
		for _, field := range fn.Decl.Type.Params.List {
			n := len(field.Names)
			if n == 0 {
				idx++ // unnamed parameter still occupies a signature slot
				continue
			}
			for _, name := range field.Names {
				obj := st.pass.localObj(name)
				if obj == nil {
					idx++
					continue
				}
				lbl := &taintLabel{params: map[int]bool{idx: true}}
				if isByteSliceType(obj.Type()) || isStreamReaderType(obj.Type()) {
					lbl.untrusted = true
				}
				st.labels[obj] = lbl
				st.paramIndex[obj] = idx
				idx++
			}
		}
	}

	st.walkBody(fn.Decl.Body, st.summary)
	return st.summary
}

// walkBody runs the lexical walk over one body, attributing return
// statements to collect (the summary of the function or closure being
// analyzed). Nested function literals are analyzed recursively with shared
// state — captured variables keep their labels — but their returns go to
// their own collector.
func (st *taintState) walkBody(body *ast.BlockStmt, collect *taintSummary) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if st.seenLits[n] {
				return false
			}
			st.seenLits[n] = true
			nres := 0
			if n.Type.Results != nil {
				for _, f := range n.Type.Results.List {
					if len(f.Names) == 0 {
						nres++
					} else {
						nres += len(f.Names)
					}
				}
			}
			// An unassigned literal (goroutine body, parallel.ForShard
			// closure) executes in this function's ident space: walk it with
			// shared state; its returns belong to nobody.
			sub := &taintSummary{results: make([]taintLabel, nres), sizeParams: map[int]bool{}}
			st.walkBody(n.Body, sub)
			return false
		case *ast.IfStmt:
			st.sanitizeCond(n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				st.sanitizeCond(n.Cond)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				st.sanitizeCond(n.Tag)
			}
			for _, cl := range n.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						st.sanitizeCond(e)
					}
				}
			}
		case *ast.CallExpr:
			st.visitCall(n)
		case *ast.AssignStmt:
			st.visitAssign(n)
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				for _, spec := range n.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						st.visitValueSpec(vs)
					}
				}
			}
		case *ast.RangeStmt:
			st.visitRange(n)
		case *ast.ReturnStmt:
			st.visitReturn(n, collect)
		case *ast.IndexExpr:
			st.checkIndex(n.Index, "index")
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil {
					st.checkIndex(b, "slice bound")
				}
			}
		}
		return true
	})
}

// sanitizeCond treats a relational comparison mentioning a value as a
// bounds guard for it: after `if n > max { return err }` (or any <, <=, >,
// >= involving n) the value is considered checked. Equality alone does not
// bound a size, so == and != do not sanitize.
func (st *taintState) sanitizeCond(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, side := range []ast.Expr{b.X, b.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := st.pass.localObj(id); obj != nil {
							st.sanitized[obj] = true
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// sanitizeArgs marks every identifier mentioned in the call's arguments as
// checked — the CheckedAlloc / NewCheckedField contract is that the callee
// validates the claim before any allocation happens.
func (st *taintState) sanitizeArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := st.pass.localObj(id); obj != nil {
					st.sanitized[obj] = true
				}
			}
			return true
		})
	}
}

// visitCall handles the statement-level effects of one call: sanitizer
// recognition, make sinks, and size-sensitive callee parameters.
func (st *taintState) visitCall(call *ast.CallExpr) {
	name := calleeName(call)
	switch name {
	case "CheckedAlloc", "NewCheckedField":
		st.sanitizeArgs(call)
		return
	case "make":
		if len(call.Args) >= 2 {
			for _, size := range call.Args[1:] {
				st.checkSize(size, "make")
			}
		}
		return
	}
	if callee := st.pass.calleeFunc(call); callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Name() == "parallel" && arenaGetters[name] && len(call.Args) == 1 {
		st.checkSize(call.Args[0], "parallel."+name)
		return
	}
	// Size-sensitive parameters of module callees (and local closures).
	sum := st.calleeSummary(call)
	if sum == nil || len(sum.sizeParams) == 0 {
		return
	}
	for i, arg := range call.Args {
		if !sum.sizeParams[i] {
			continue
		}
		lbl := st.labelsOf(arg)
		if lbl.untrusted {
			if st.report {
				st.pass.Reportf(arg.Pos(),
					"untrusted decoded value flows into size-determining parameter %d of %s without CheckedAlloc or a bounds guard",
					i, name)
			}
			// The sink also sanitizes: one report per value, not one per
			// downstream use.
			st.sanitizeExpr(arg)
		}
		for p := range lbl.params {
			st.summary.sizeParams[p] = true
		}
	}
}

// arenaGetters are the parallel package's scratch getters: each returns a
// slice of the requested length, allocating it on a pool miss.
var arenaGetters = map[string]bool{"Floats": true, "Int64s": true, "Uint64s": true, "Ints": true, "Bytes": true}

// checkSize reports an allocation sized by an untrusted value and records
// parameter-derived sizes in the summary.
func (st *taintState) checkSize(size ast.Expr, what string) {
	lbl := st.labelsOf(size)
	if lbl.untrusted {
		if st.report {
			st.pass.Reportf(size.Pos(),
				"%s sized by untrusted decoded value without CheckedAlloc/NewCheckedField or a bounds guard", what)
		}
		st.sanitizeExpr(size)
	}
	for p := range lbl.params {
		// Only integer parameters are size-sensitive; a []byte parameter
		// mentioned in a size expression (len-free) is already untrusted.
		if obj := st.paramObj(p); obj != nil && isIntegerType(obj.Type()) {
			st.summary.sizeParams[p] = true
		}
	}
}

// checkIndex reports an index or slice bound derived from an untrusted
// value. Parameter-derived indexes also mark the parameter size-sensitive:
// an out-of-range index panics just like an oversized make allocates.
func (st *taintState) checkIndex(e ast.Expr, what string) {
	lbl := st.labelsOf(e)
	if lbl.untrusted {
		if st.report {
			st.pass.Reportf(e.Pos(),
				"%s derived from untrusted decoded value without a bounds guard", what)
		}
		st.sanitizeExpr(e)
	}
	for p := range lbl.params {
		if obj := st.paramObj(p); obj != nil && isIntegerType(obj.Type()) {
			st.summary.sizeParams[p] = true
		}
	}
}

// sanitizeExpr marks the identifiers of a just-reported expression checked,
// collapsing repeated uses of one bad value into a single diagnostic.
func (st *taintState) sanitizeExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := st.pass.localObj(id); obj != nil {
				st.sanitized[obj] = true
			}
		}
		return true
	})
}

func (st *taintState) paramObj(i int) types.Object {
	for obj, idx := range st.paramIndex {
		if idx == i {
			return obj
		}
	}
	return nil
}

// visitAssign propagates labels through an assignment.
func (st *taintState) visitAssign(as *ast.AssignStmt) {
	// Closure definition: `f := func() ... {...}` — analyze the literal now
	// (shared state; captures keep labels) and key its summary by f.
	if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if lit, ok := ast.Unparen(as.Rhs[0]).(*ast.FuncLit); ok {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if !st.seenLits[lit] {
					st.seenLits[lit] = true
					nres := 0
					if lit.Type.Results != nil {
						for _, f := range lit.Type.Results.List {
							if len(f.Names) == 0 {
								nres++
							} else {
								nres += len(f.Names)
							}
						}
					}
					sub := &taintSummary{results: make([]taintLabel, nres), sizeParams: map[int]bool{}}
					st.walkBody(lit.Body, sub)
					if obj := st.pass.localObj(id); obj != nil {
						st.closures[obj] = sub
					}
				}
				return
			}
		}
	}

	// Multi-value call: `a, b := g(...)`.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			labels := st.callResultLabels(call, len(as.Lhs))
			for i, lhs := range as.Lhs {
				st.assignLabel(lhs, labels[i], as.Tok)
			}
			return
		}
	}

	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		st.assignLabel(as.Lhs[i], st.labelsOf(as.Rhs[i]), as.Tok)
	}
}

func (st *taintState) visitValueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			labels := st.callResultLabels(call, len(vs.Names))
			for i, name := range vs.Names {
				st.assignLabel(name, labels[i], token.DEFINE)
			}
			return
		}
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			st.assignLabel(name, st.labelsOf(vs.Values[i]), token.DEFINE)
		}
	}
}

// assignLabel stores a label on the assignment target. Plain identifiers
// take the label (clearing any earlier sanitization — a reassigned variable
// is a new value); writes through an index expression taint the container's
// contents.
func (st *taintState) assignLabel(lhs ast.Expr, lbl *taintLabel, tok token.Token) {
	compound := tok != token.ASSIGN && tok != token.DEFINE // += etc. merge
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := st.pass.localObj(lhs)
		if obj == nil {
			return
		}
		if compound {
			cur := st.labels[obj]
			if cur == nil {
				cur = &taintLabel{}
				st.labels[obj] = cur
			}
			cur.merge(lbl)
			if !lbl.empty() {
				delete(st.sanitized, obj)
			}
			return
		}
		st.labels[obj] = lbl.clone()
		if !lbl.empty() {
			delete(st.sanitized, obj)
		}
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && !lbl.empty() {
			if obj := st.pass.localObj(base); obj != nil {
				cur := st.labels[obj]
				if cur == nil {
					cur = &taintLabel{}
					st.labels[obj] = cur
				}
				cur.merge(lbl)
			}
		}
	}
}

func (st *taintState) visitRange(r *ast.RangeStmt) {
	lbl := st.labelsOf(r.X)
	if lbl.empty() {
		return
	}
	// The element variable carries the container's label; the index is a
	// position in the actual data, hence trusted.
	if r.Value != nil {
		st.assignLabel(r.Value, lbl, token.DEFINE)
	}
}

func (st *taintState) visitReturn(ret *ast.ReturnStmt, collect *taintSummary) {
	if collect == nil {
		return
	}
	if len(ret.Results) == 1 && len(collect.results) > 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			labels := st.callResultLabels(call, len(collect.results))
			for i := range collect.results {
				collect.results[i].merge(labels[i])
			}
			return
		}
	}
	for i, e := range ret.Results {
		if i < len(collect.results) {
			collect.results[i].merge(st.labelsOf(e))
		}
	}
}

// callResultLabels computes the labels of each result of a call, applying
// callee summaries: a result marked untrusted stays untrusted; a result
// marked pass-through of parameter j takes the label of argument j at this
// site. Stream-reading heuristics give the known decoder shapes their
// labels even where no summary exists.
func (st *taintState) callResultLabels(call *ast.CallExpr, n int) []*taintLabel {
	labels := make([]*taintLabel, n)
	for i := range labels {
		labels[i] = &taintLabel{}
	}
	name := calleeName(call)

	// Stream-reader heuristics: in decode scope, anything read off the
	// stream is untrusted regardless of where the reader type lives.
	switch name {
	case "Uvarint", "Varint":
		if len(call.Args) > 0 && !st.labelsOf(call.Args[0]).empty() {
			labels[0].untrusted = true
		}
		return labels
	case "ReadBit", "ReadBits", "ReadUvarint", "ReadVarint", "ReadByte":
		labels[0].untrusted = true
		return labels
	}

	sum := st.calleeSummary(call)
	if sum == nil {
		return labels
	}
	for i := 0; i < n && i < len(sum.results); i++ {
		if sum.results[i].untrusted {
			labels[i].untrusted = true
		}
		for p := range sum.results[i].params {
			if p < len(call.Args) {
				labels[i].merge(st.labelsOf(call.Args[p]))
			}
		}
	}
	return labels
}

// calleeSummary resolves the taint summary for a call target: a local
// closure's recorded summary or a module function's fixed-point summary.
func (st *taintState) calleeSummary(call *ast.CallExpr) *taintSummary {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := st.pass.localObj(id); obj != nil {
			if sum, ok := st.closures[obj]; ok {
				return sum
			}
		}
	}
	callee := st.pass.calleeFunc(call)
	if callee == nil {
		return nil
	}
	return st.prog.taint[callee]
}

// labelsOf computes the label of an expression: the union over mentioned
// identifiers (ignoring sanitized ones), with len/cap arguments excluded
// (the actual size of data in hand is trusted), fresh allocations clean,
// and call results labeled via callee summaries and reader heuristics.
func (st *taintState) labelsOf(e ast.Expr) *taintLabel {
	out := &taintLabel{}
	st.addLabels(e, out)
	return out
}

func (st *taintState) addLabels(e ast.Expr, out *taintLabel) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.Ident:
		obj := st.pass.localObj(e)
		if obj == nil || st.sanitized[obj] {
			return
		}
		out.merge(st.labels[obj])
	case *ast.BasicLit:
	case *ast.BinaryExpr:
		st.addLabels(e.X, out)
		st.addLabels(e.Y, out)
	case *ast.UnaryExpr:
		st.addLabels(e.X, out)
	case *ast.StarExpr:
		st.addLabels(e.X, out)
	case *ast.SelectorExpr:
		// Field read through a tainted base keeps the base's label; a
		// package-qualified name contributes nothing.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if obj := st.pass.localObj(id); obj != nil {
				if _, isPkg := obj.(*types.PkgName); isPkg {
					return
				}
			}
		}
		st.addLabels(e.X, out)
	case *ast.IndexExpr:
		st.addLabels(e.X, out)
		st.addLabels(e.Index, out)
	case *ast.SliceExpr:
		st.addLabels(e.X, out)
	case *ast.TypeAssertExpr:
		st.addLabels(e.X, out)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				st.addLabels(kv.Value, out)
				continue
			}
			st.addLabels(el, out)
		}
	case *ast.CallExpr:
		switch calleeName(e) {
		case "len", "cap", "make", "new":
			return
		}
		// Conversions keep their operand's label.
		if tv, ok := st.pass.Info.Types[e.Fun]; ok && tv.IsType() {
			for _, a := range e.Args {
				st.addLabels(a, out)
			}
			return
		}
		labels := st.callResultLabels(e, 1)
		out.merge(labels[0])
	case *ast.FuncLit:
		// handled separately; a literal value itself carries no taint
	}
}
