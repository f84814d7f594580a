package mdslint

// BerBalance verifies the direct-emit framing invariant (internal/ber
// emit.go): every Builder.Begin/BeginPrimitive must be matched by End on
// every control-flow path, including early error returns — an unmatched
// Begin leaves a placeholder length octet in the wire buffer and corrupts
// the protocol stream for every subsequent message on the connection.
//
// The analyzer interprets each function's structured control flow (if/else,
// for/range, switch, select), tracking the set of possible net Begin-End
// depths for every Builder-typed variable. Helpers get a per-parameter net
// delta fact — e.g. internal/ldap's beginResult legitimately opens one
// element (+1) for its caller to close — computed to a fixed point so
// recursion (appendFilter) converges. Local builders must be balanced at
// every exit; parameter builders must leave the same net delta on every
// path, with the divergent (usually early-return) paths flagged.
//
// Builders that escape the direct analysis — captured by closures, aliased
// into other variables, or passed to unresolvable callees — are skipped
// rather than guessed at.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const ruleBerBalance = "berbalance"

var BerBalance = &Analyzer{
	Name: ruleBerBalance,
	Doc:  "every ber.Builder.Begin/BeginPrimitive is matched by End on all control-flow paths, early returns included",
	Run:  runBerBalance,
}

const factBerDelta = "berDelta" // on *types.Func: map[int]int input source → net delta

func isBuilderType(t types.Type) bool { return typeIs(t, pkgBer, "Builder") }

// deltaSet is the set of possible net depths of one builder variable.
type deltaSet map[int]bool

func singleton(d int) deltaSet { return deltaSet{d: true} }

func (s deltaSet) equal(o deltaSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

func (s deltaSet) String() string {
	ks := make([]int, 0, len(s))
	for k := range s {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprint(k)
	}
	return strings.Join(parts, " or ")
}

type bbState map[types.Object]deltaSet

func (st bbState) clone() bbState {
	out := make(bbState, len(st))
	for k, v := range st {
		cp := make(deltaSet, len(v))
		for d := range v {
			cp[d] = true
		}
		out[k] = cp
	}
	return out
}

func (st bbState) get(obj types.Object) deltaSet {
	if s, ok := st[obj]; ok {
		return s
	}
	return singleton(0)
}

// merge unions o into st (branch join).
func (st bbState) merge(o bbState, vars map[types.Object]bool) {
	for obj := range vars {
		a, b := st.get(obj), o.get(obj)
		u := make(deltaSet, len(a)+len(b))
		for d := range a {
			u[d] = true
		}
		for d := range b {
			u[d] = true
		}
		st[obj] = u
	}
}

type bbExit struct {
	pos token.Pos
	st  bbState
}

type bbAnalysis struct {
	p      *Pass
	info   *types.Info
	decl   *ast.FuncDecl
	vars   map[types.Object]bool // tracked Builder variables
	local  map[types.Object]bool // declared inside the function
	inputs map[types.Object]int  // receiver/param object → source index
	opaque map[types.Object]bool // escaped; excluded from tracking
	exits  []bbExit
}

func newBBAnalysis(p *Pass, d declInfo) *bbAnalysis {
	a := &bbAnalysis{
		p: p, info: d.pkg.Info, decl: d.decl,
		vars:   map[types.Object]bool{},
		local:  map[types.Object]bool{},
		inputs: map[types.Object]int{},
		opaque: map[types.Object]bool{},
	}
	addInput := func(name *ast.Ident, src int) {
		if obj := a.info.Defs[name]; obj != nil && isBuilderType(obj.Type()) {
			a.vars[obj] = true
			a.inputs[obj] = src
		}
	}
	if d.decl.Recv != nil {
		for _, f := range d.decl.Recv.List {
			for _, name := range f.Names {
				addInput(name, -1)
			}
		}
	}
	idx := 0
	if d.decl.Type.Params != nil {
		for _, f := range d.decl.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, name := range f.Names {
				addInput(name, idx)
				idx++
			}
		}
	}
	// Locals and escapes.
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if obj := a.info.Defs[v]; obj != nil && isBuilderType(obj.Type()) {
				if !a.vars[obj] {
					a.vars[obj] = true
					a.local[obj] = true
				}
			}
		case *ast.FuncLit:
			// A builder referenced from a closure escapes direct tracking.
			ast.Inspect(v.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := a.info.Uses[id]; obj != nil && isBuilderType(obj.Type()) {
						a.opaque[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.AssignStmt:
			// Aliasing a builder into another variable defeats per-name
			// depth tracking; mark both sides opaque.
			for _, rhs := range v.Rhs {
				if obj, depth := rootObj(a.info, rhs); obj != nil && depth == 0 && a.vars[obj] {
					if _, isCall := ast.Unparen(rhs).(*ast.CallExpr); !isCall {
						a.opaque[obj] = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if obj, _ := rootObj(a.info, r); obj != nil && a.vars[obj] {
					a.opaque[obj] = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if obj, _ := rootObj(a.info, el); obj != nil && a.vars[obj] {
					a.opaque[obj] = true
				}
			}
		}
		return true
	})
	return a
}

func (a *bbAnalysis) shift(st bbState, obj types.Object, d int) {
	if obj == nil || !a.vars[obj] || a.opaque[obj] || d == 0 {
		return
	}
	cur := st.get(obj)
	ns := make(deltaSet, len(cur))
	for k := range cur {
		ns[k+d] = true
	}
	st[obj] = ns
}

func (a *bbAnalysis) builderRoot(e ast.Expr) types.Object {
	obj, _ := rootObj(a.info, e)
	if obj != nil && a.vars[obj] {
		return obj
	}
	return nil
}

// callEffect applies one call's net effect on builder depths.
func (a *bbAnalysis) callEffect(call *ast.CallExpr, st bbState) {
	callee := calleeOf(a.info, call)
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if callee != nil && sel != nil {
		switch {
		case isMethod(callee, pkgBer, "Builder", "Begin"),
			isMethod(callee, pkgBer, "Builder", "BeginPrimitive"):
			a.shift(st, a.builderRoot(sel.X), +1)
			return
		case isMethod(callee, pkgBer, "Builder", "End"):
			a.shift(st, a.builderRoot(sel.X), -1)
			return
		case isMethod(callee, pkgBer, "Builder", "Reset"):
			if obj := a.builderRoot(sel.X); obj != nil && !a.opaque[obj] {
				st[obj] = singleton(0)
			}
			return
		}
	}
	var deltas map[int]int
	if callee != nil {
		if v, ok := a.p.Fact(callee, factBerDelta); ok {
			deltas = v.(map[int]int)
		}
	}
	var sig *types.Signature
	if callee != nil {
		sig, _ = callee.Type().(*types.Signature)
	}
	if sel != nil && sig != nil && sig.Recv() != nil {
		if obj := a.builderRoot(sel.X); obj != nil {
			a.shift(st, obj, deltas[-1])
		}
	}
	for i, arg := range call.Args {
		obj := a.builderRoot(arg)
		if obj == nil {
			continue
		}
		if callee == nil || sig == nil {
			// A builder passed through an unresolvable call cannot be
			// tracked; skip it rather than guess.
			a.opaque[obj] = true
			continue
		}
		pi := i
		if np := sig.Params().Len(); sig.Variadic() && pi >= np-1 {
			pi = np - 1
		} else if pi >= np {
			continue
		}
		a.shift(st, obj, deltas[pi])
	}
}

// effects applies every call effect inside a node (skipping closures).
func (a *bbAnalysis) effects(n ast.Node, st bbState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			a.callEffect(call, st)
		}
		return true
	})
}

// terminates reports whether a simple statement ends the path (panic, exit).
func (a *bbAnalysis) terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isB := a.info.Uses[fun].(*types.Builtin); isB && fun.Name == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if callee := calleeOf(a.info, call); callee != nil {
			if isFunc(callee, "os", "Exit") || (callee.Pkg() != nil && callee.Pkg().Path() == "log" && strings.HasPrefix(callee.Name(), "Fatal")) {
				return true
			}
		}
	}
	return false
}

// exec interprets one statement; reports whether the path terminated.
func (a *bbAnalysis) exec(s ast.Stmt, st bbState, findings *[]Finding) bool {
	switch v := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return a.execList(v.List, st, findings)
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			a.effects(r, st)
		}
		a.exits = append(a.exits, bbExit{pos: v.Pos(), st: st.clone()})
		return true
	case *ast.IfStmt:
		a.exec(v.Init, st, findings)
		a.effects(v.Cond, st)
		thenSt := st.clone()
		thenTerm := a.exec(v.Body, thenSt, findings)
		elseSt := st.clone()
		elseTerm := false
		if v.Else != nil {
			elseTerm = a.exec(v.Else, elseSt, findings)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, thenSt)
			st.merge(elseSt, a.vars)
		}
		return false
	case *ast.ForStmt:
		a.exec(v.Init, st, findings)
		a.effects(v.Cond, st)
		a.loopBody(v.Body, v.Post, st, v.Pos(), findings)
		return false
	case *ast.RangeStmt:
		a.effects(v.X, st)
		a.loopBody(v.Body, nil, st, v.Pos(), findings)
		return false
	case *ast.SwitchStmt:
		a.exec(v.Init, st, findings)
		a.effects(v.Tag, st)
		return a.execCases(v.Body, st, findings, hasDefaultClause(v.Body))
	case *ast.TypeSwitchStmt:
		a.exec(v.Init, st, findings)
		a.exec(v.Assign, st, findings)
		return a.execCases(v.Body, st, findings, hasDefaultClause(v.Body))
	case *ast.SelectStmt:
		return a.execCases(v.Body, st, findings, true)
	case *ast.LabeledStmt:
		return a.exec(v.Stmt, st, findings)
	case *ast.BranchStmt:
		// break/continue/goto: approximate as path end (state dropped).
		return true
	case *ast.DeferStmt:
		// Deferred builder effects run at an unknowable point relative to
		// the returns; give up on any builder they touch.
		before := st.clone()
		a.callEffect(v.Call, st)
		for obj := range a.vars {
			if !st.get(obj).equal(before.get(obj)) {
				a.opaque[obj] = true
			}
		}
		replace(st, before)
		return false
	case *ast.GoStmt:
		for _, arg := range v.Call.Args {
			if obj := a.builderRoot(arg); obj != nil {
				a.opaque[obj] = true
			}
		}
		return false
	default:
		if a.terminates(s) {
			return true
		}
		a.effects(s, st)
		return false
	}
}

func replace(dst, src bbState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func (a *bbAnalysis) execList(list []ast.Stmt, st bbState, findings *[]Finding) bool {
	for _, s := range list {
		if a.exec(s, st, findings) {
			return true
		}
	}
	return false
}

// loopBody requires the body to be depth-neutral across one iteration;
// anything else is flagged, since the imbalance compounds per iteration.
func (a *bbAnalysis) loopBody(body *ast.BlockStmt, post ast.Stmt, st bbState, pos token.Pos, findings *[]Finding) {
	bodySt := st.clone()
	term := a.exec(body, bodySt, findings)
	if !term {
		a.exec(post, bodySt, findings)
		for obj := range a.vars {
			if a.opaque[obj] {
				continue
			}
			if !bodySt.get(obj).equal(st.get(obj)) {
				if findings != nil {
					*findings = append(*findings, Finding{
						Pos:  a.p.Fset.Position(pos),
						Rule: ruleBerBalance,
						Msg: "loop body leaves builder " + objName(obj) + " with a net Begin/End imbalance per iteration (depth " +
							bodySt.get(obj).String() + " vs " + st.get(obj).String() + " at entry)",
					})
				}
				// Keep the entry state to avoid cascading noise.
			}
		}
	}
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func (a *bbAnalysis) execCases(body *ast.BlockStmt, st bbState, findings *[]Finding, exhaustive bool) bool {
	var merged bbState
	for _, c := range body.List {
		cs := st.clone()
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				a.effects(e, cs)
			}
			stmts = cc.Body
		case *ast.CommClause:
			a.exec(cc.Comm, cs, findings)
			stmts = cc.Body
		}
		if !a.execList(stmts, cs, findings) {
			if merged == nil {
				merged = cs
			} else {
				merged.merge(cs, a.vars)
			}
		}
	}
	if !exhaustive {
		if merged == nil {
			merged = st.clone()
		} else {
			merged.merge(st, a.vars)
		}
	}
	if merged == nil {
		return true
	}
	replace(st, merged)
	return false
}

func objName(obj types.Object) string { return obj.Name() }

// analyze runs the interpreter over one function, updating the delta fact
// and (when findings != nil) emitting diagnostics. Reports fact change.
func analyzeBuilderFunc(p *Pass, d declInfo, findings *[]Finding) bool {
	a := newBBAnalysis(p, d)
	if len(a.vars) == 0 {
		return false
	}
	st := bbState{}
	terminated := a.exec(d.decl.Body, st, findings)
	if !terminated {
		a.exits = append(a.exits, bbExit{pos: d.decl.Body.Rbrace, st: st.clone()})
	}
	if len(a.exits) == 0 {
		return false
	}

	newDeltas := map[int]int{}
	for obj := range a.vars {
		if a.opaque[obj] {
			continue
		}
		if a.local[obj] {
			if findings != nil {
				for _, ex := range a.exits {
					if ds := ex.st.get(obj); !ds.equal(singleton(0)) {
						*findings = append(*findings, Finding{
							Pos:  p.Fset.Position(ex.pos),
							Rule: ruleBerBalance,
							Msg:  "builder " + objName(obj) + " reaches this exit with unclosed Begin (net depth " + ds.String() + "); every Begin needs a matching End on this path",
						})
					}
				}
			}
			continue
		}
		// Parameter/receiver builder: every exit must agree on the net
		// delta; the agreed value becomes the function's fact.
		mode := exitMode(a.exits, obj)
		newDeltas[a.inputs[obj]] = mode
		if findings != nil {
			for _, ex := range a.exits {
				if ds := ex.st.get(obj); !ds.equal(singleton(mode)) {
					*findings = append(*findings, Finding{
						Pos:  p.Fset.Position(ex.pos),
						Rule: ruleBerBalance,
						Msg: "this exit leaves builder " + objName(obj) + " at net depth " + ds.String() +
							fmt.Sprintf(" but other paths leave %d; close (or open) the element on every path", mode),
					})
				}
			}
		}
	}

	old, had := p.Fact(d.obj, factBerDelta)
	if had && deltasEqual(old.(map[int]int), newDeltas) {
		return false
	}
	p.SetFact(d.obj, factBerDelta, newDeltas)
	return true
}

// exitMode picks the reference net delta for an input builder: the most
// common singleton exit depth, preferring the final exit on ties (the
// fall-through path is the intended shape; early returns are the suspects).
func exitMode(exits []bbExit, obj types.Object) int {
	counts := map[int]int{}
	for _, ex := range exits {
		if ds := ex.st.get(obj); len(ds) == 1 {
			for d := range ds {
				counts[d]++
			}
		}
	}
	best, bestN := 0, -1
	if ds := exits[len(exits)-1].st.get(obj); len(ds) == 1 {
		for d := range ds {
			best, bestN = d, counts[d]
		}
	}
	for d, n := range counts {
		if n > bestN {
			best, bestN = d, n
		}
	}
	return best
}

func deltasEqual(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runBerBalance(p *Pass) []Finding {
	decls := p.funcDecls()
	for range 5 {
		changed := false
		for _, d := range decls {
			if analyzeBuilderFunc(p, d, nil) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	var out []Finding
	for _, d := range decls {
		analyzeBuilderFunc(p, d, &out)
	}
	return out
}
