package mdslint

// Flow-insensitive taint propagation over a single function body, shared by
// the typed analyzers (snapshotcheck, poolcheck) and the funcShape fact
// pass. Taint is tracked per source — source 0 is the analyzer's resource
// (a store snapshot, a frame-aliased buffer); further sources tag a
// function's receiver and parameters so the shape pass can discover which
// results alias which inputs.
//
// Each source carries a three-level lattice, because "touches a snapshot"
// is not one property:
//
//	self    — the value IS the source's own value (only used for input
//	          tags: the receiver/parameter as seeded);
//	elem    — a fresh local container whose elements or fields refer to
//	          source memory (out := append(nil, snapshots...)); writing
//	          the container's own top level mutates fresh memory and is
//	          safe, writing through it is not;
//	primary — the value aliases memory owned by (reachable through) the
//	          source; any write through it is a shared-state mutation.
//
// Reading through a value (field select, index, deref, channel receive)
// moves self/elem up to primary; building a container (composite literal,
// append) moves everything down to elem. This is the distinction that lets
// sorting a freshly built []*Entry of snapshots pass while flagging a
// write to one of the entries inside it.
//
// The engine deliberately trades precision for predictability: it iterates
// a statement sweep to a fixed point, propagates through assignments,
// ranges, type switches, composite literals and calls, and treats immutable
// types (strings, numerics) as never tainted. Calls resolve through the
// analyzer-supplied callTaint hook, which is where interprocedural facts
// plug in.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type taintBits uint64

// Each taint source owns a 3-bit group; source 0 (the analyzer resource)
// occupies the low group.
const (
	taintSelf    taintBits = 1 << 0
	taintElem    taintBits = 1 << 1
	taintPrimary taintBits = 1 << 2
	taintAny     taintBits = taintSelf | taintElem | taintPrimary

	// taintShared is what analyzers flag on: the value aliases or holds
	// source memory (self is only meaningful for shape-pass input tags).
	taintShared taintBits = taintElem | taintPrimary
)

// Every-third-bit masks selecting one lattice level across all sources.
const (
	selfMask taintBits = 0x9249249249249249 // bits 0, 3, 6, …
	elemMask taintBits = 0x2492492492492492 // bits 1, 4, 7, …
	primMask taintBits = 0x4924924924924924 // bits 2, 5, 8, …
)

// toPrimary models reading through a value: the result aliases memory
// reachable through whatever the operand referred to.
func toPrimary(b taintBits) taintBits {
	return (b&selfMask)<<2 | (b&elemMask)<<1 | b&primMask
}

// toElem models building a fresh container around a value: the container's
// own memory is new, but its contents refer to the operand's sources.
func toElem(b taintBits) taintBits {
	return (b&selfMask)<<1 | b&elemMask | (b&primMask)>>1
}

// groupShift returns the bit offset of a source's group: -1 is the
// receiver (group 1), i >= 0 the i'th parameter (group 2+i).
func groupShift(src int) uint { return uint(3 * (2 + src)) }

// tagFor returns the self bit tagging an input source. Sources whose group
// does not fit the word are untagged (invisible to the shape pass — fine
// in practice; it takes 19 parameters to get there).
func tagFor(src int) taintBits {
	g := groupShift(src)
	if g+2 >= 64 {
		return 0
	}
	return 1 << g
}

// tagSources decodes which input sources have any bit set.
func tagSources(b taintBits) []int {
	var out []int
	for g := uint(3); g+2 < 64; g += 3 {
		if b&(taintAny<<g) != 0 {
			out = append(out, int(g/3)-2)
		}
	}
	return out
}

type taintConfig struct {
	info *types.Info
	// taintable filters which types can carry taint; nil means pointerish.
	taintable func(types.Type) bool
	// callTaint returns per-result taint for a (possibly nil) resolved
	// callee. recv/args carry the taint of the receiver and arguments.
	// Returning nil means "no taint".
	callTaint func(call *ast.CallExpr, callee *types.Func, recv taintBits, args []taintBits, nres int) []taintBits
	// fieldRead returns extra taint conferred by reading the given struct
	// field, independent of the container's taint.
	fieldRead func(field *types.Var) taintBits
	// onFieldStore observes stores of tainted values into struct fields
	// (fired once per sweep; consumers must be idempotent).
	onFieldStore func(field *types.Var, bits taintBits)
	// seed taints objects (receiver/parameters) before the first sweep.
	seed map[types.Object]taintBits
	// callbackTaint returns the taint callee confers on parameter param of a
	// function literal passed to it — a callee that hands its resource to a
	// callback instead of returning it. Nil means no callee does.
	callbackTaint func(callee *types.Func, param int) taintBits
}

type tengine struct {
	cfg     *taintConfig
	t       map[types.Object]taintBits
	changed bool
}

// pointerish reports whether a type can transitively reach mutable shared
// state: everything except basic types (strings included — immutable) and
// nil. Structs and interfaces count, since they may wrap pointers.
func pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Basic:
		return false
	}
	return true
}

func newTaintEngine(cfg *taintConfig) *tengine {
	e := &tengine{cfg: cfg, t: map[types.Object]taintBits{}}
	for obj, b := range cfg.seed {
		e.t[obj] = b
	}
	return e
}

func (e *tengine) taintableType(t types.Type) bool {
	if e.cfg.taintable != nil {
		return e.cfg.taintable(t)
	}
	return pointerish(t)
}

func (e *tengine) objOf(id *ast.Ident) types.Object {
	if o := e.cfg.info.Defs[id]; o != nil {
		return o
	}
	return e.cfg.info.Uses[id]
}

func (e *tengine) addTaint(obj types.Object, b taintBits) {
	if obj == nil || b == 0 || !e.taintableType(obj.Type()) {
		return
	}
	if e.t[obj]&b != b {
		e.t[obj] |= b
		e.changed = true
	}
}

// run sweeps body until the taint map stops changing.
func (e *tengine) run(body *ast.BlockStmt) {
	for range 32 {
		e.changed = false
		e.sweep(body)
		if !e.changed {
			return
		}
	}
}

func (e *tengine) sweep(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			e.assignStmt(v)
		case *ast.ValueSpec:
			e.valueSpec(v)
		case *ast.RangeStmt:
			// Range elements are read out of the container.
			if b := toPrimary(e.taintOf(v.X)); b != 0 {
				if id, ok := v.Key.(*ast.Ident); ok {
					e.addTaint(e.objOf(id), b)
				}
				if id, ok := v.Value.(*ast.Ident); ok {
					e.addTaint(e.objOf(id), b)
				}
			}
		case *ast.TypeSwitchStmt:
			e.typeSwitch(v)
		case *ast.CallExpr:
			e.callbacks(v)
		}
		return true
	})
}

// callbacks taints the parameters of function literals passed to a callee
// that delivers its resource through them.
func (e *tengine) callbacks(call *ast.CallExpr) {
	if e.cfg.callbackTaint == nil {
		return
	}
	callee := calleeOf(e.cfg.info, call)
	if callee == nil {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		i := 0
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				e.addTaint(e.objOf(name), e.cfg.callbackTaint(callee, i))
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
}

func (e *tengine) assignStmt(a *ast.AssignStmt) {
	switch {
	case len(a.Lhs) == len(a.Rhs):
		for i := range a.Lhs {
			e.assign(a.Lhs[i], e.taintOf(a.Rhs[i]))
		}
	case len(a.Rhs) == 1:
		bits := e.tupleTaint(a.Rhs[0], len(a.Lhs))
		for i := range a.Lhs {
			e.assign(a.Lhs[i], bits[i])
		}
	}
}

func (e *tengine) valueSpec(s *ast.ValueSpec) {
	switch {
	case len(s.Values) == len(s.Names):
		for i, name := range s.Names {
			e.addTaint(e.objOf(name), e.taintOf(s.Values[i]))
		}
	case len(s.Values) == 1:
		bits := e.tupleTaint(s.Values[0], len(s.Names))
		for i, name := range s.Names {
			e.addTaint(e.objOf(name), bits[i])
		}
	}
}

func (e *tengine) typeSwitch(s *ast.TypeSwitchStmt) {
	var operand ast.Expr
	switch st := s.Assign.(type) {
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			if ta, ok := st.Rhs[0].(*ast.TypeAssertExpr); ok {
				operand = ta.X
			}
		}
	case *ast.ExprStmt:
		if ta, ok := st.X.(*ast.TypeAssertExpr); ok {
			operand = ta.X
		}
	}
	if operand == nil {
		return
	}
	b := e.taintOf(operand)
	if b == 0 {
		return
	}
	for _, cc := range s.Body.List {
		if obj := e.cfg.info.Implicits[cc]; obj != nil {
			e.addTaint(obj, b)
		}
	}
}

// assign propagates taint into an assignment target.
func (e *tengine) assign(lhs ast.Expr, bits taintBits) {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v.Name != "_" {
			e.addTaint(e.objOf(v), bits)
		}
	case *ast.SelectorExpr:
		if bits == 0 || e.cfg.onFieldStore == nil {
			return
		}
		if field, ok := e.objOf(v.Sel).(*types.Var); ok && field.IsField() {
			e.cfg.onFieldStore(field, bits)
		}
	case *ast.IndexExpr:
		// a[i] = x: the container now holds x's sources.
		if bits != 0 {
			e.assign(v.X, toElem(bits))
		}
	case *ast.StarExpr:
		// *p = x: whatever p points at now holds x's sources.
		if bits != 0 {
			e.assign(v.X, toElem(bits))
		}
	}
}

// tupleTaint handles the 1:n assignment forms.
func (e *tengine) tupleTaint(rhs ast.Expr, n int) []taintBits {
	out := make([]taintBits, n)
	switch v := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		res := e.callTaints(v)
		copy(out, res)
	case *ast.TypeAssertExpr: // v, ok := x.(T)
		if n > 0 {
			out[0] = e.taintOf(v.X)
		}
	case *ast.IndexExpr: // v, ok := m[k]
		if n > 0 {
			out[0] = toPrimary(e.taintOf(v.X))
		}
	case *ast.UnaryExpr: // v, ok := <-ch
		if v.Op == token.ARROW && n > 0 {
			out[0] = toPrimary(e.taintOf(v.X))
		}
	}
	return out
}

// taintOf computes the taint carried by an expression under the current map.
func (e *tengine) taintOf(expr ast.Expr) taintBits {
	switch v := expr.(type) {
	case *ast.Ident:
		obj := e.objOf(v)
		if obj == nil {
			return 0
		}
		return e.t[obj]
	case *ast.SelectorExpr:
		var b taintBits
		// Skip package qualifiers: pkg.Var roots at the package-level
		// object, whose taint (if any) is in the map directly.
		if id, ok := v.X.(*ast.Ident); ok {
			if _, isPkg := e.cfg.info.Uses[id].(*types.PkgName); isPkg {
				if obj := e.cfg.info.Uses[v.Sel]; obj != nil {
					b = e.t[obj]
				}
				return b
			}
		}
		// A field read looks through the container.
		b = toPrimary(e.taintOf(v.X))
		if e.cfg.fieldRead != nil {
			if field, ok := e.cfg.info.Uses[v.Sel].(*types.Var); ok && field.IsField() {
				b |= e.cfg.fieldRead(field)
			}
		}
		return b
	case *ast.IndexExpr:
		return toPrimary(e.taintOf(v.X))
	case *ast.SliceExpr:
		// Reslicing shares the same backing at the same level.
		return e.taintOf(v.X)
	case *ast.StarExpr:
		return toPrimary(e.taintOf(v.X))
	case *ast.ParenExpr:
		return e.taintOf(v.X)
	case *ast.TypeAssertExpr:
		return e.taintOf(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return e.taintOf(v.X)
		}
		if v.Op == token.ARROW {
			return toPrimary(e.taintOf(v.X))
		}
		return 0
	case *ast.CallExpr:
		var b taintBits
		for _, r := range e.callTaints(v) {
			b |= r
		}
		return b
	case *ast.CompositeLit:
		// A literal is a fresh container holding its elements.
		var b taintBits
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			b |= e.taintOf(el)
		}
		return toElem(b)
	}
	return 0
}

// callTaints computes per-result taint for a call, handling conversions and
// builtins in the engine and delegating real calls to the config hook.
func (e *tengine) callTaints(call *ast.CallExpr) []taintBits {
	info := e.cfg.info
	nres := resultCount(info, call)
	out := make([]taintBits, max(nres, 1))

	// Conversions: string conversions copy (and strings are immutable
	// anyway); []byte("...") copies; other conversions alias their operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && !isImmutableConversion(info, tv.Type, call.Args[0]) {
			out[0] = e.taintOf(call.Args[0])
		}
		return out
	}

	// Builtins: append is the interesting one — it copies element values
	// into the destination, so for immutable element types only the
	// destination's taint survives, while pointerish elements keep aliasing
	// what they point at.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			if id.Name == "append" && len(call.Args) > 0 {
				b := e.taintOf(call.Args[0])
				if appendElemPointerish(info, call) {
					for i, a := range call.Args[1:] {
						ab := e.taintOf(a)
						if call.Ellipsis.IsValid() && i == len(call.Args)-2 {
							// append(dst, src...): elements are read out of
							// src, then held by the destination.
							ab = toPrimary(ab)
						}
						b |= toElem(ab)
					}
				}
				out[0] = b
			}
			return out
		}
	}

	callee := calleeOf(info, call)
	var recv taintBits
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = e.taintOf(sel.X)
		}
	}
	args := make([]taintBits, len(call.Args))
	for i, a := range call.Args {
		args[i] = e.taintOf(a)
	}
	if e.cfg.callTaint != nil {
		if r := e.cfg.callTaint(call, callee, recv, args, nres); r != nil {
			copy(out, r)
		}
	}
	return out
}

// isImmutableConversion reports whether converting arg to typ yields a
// value that cannot alias mutable state: any string conversion, and
// []byte(string) (which copies).
func isImmutableConversion(info *types.Info, typ types.Type, arg ast.Expr) bool {
	if b, ok := typ.Underlying().(*types.Basic); ok {
		return b.Info()&types.IsString != 0 || b.Info()&(types.IsNumeric|types.IsBoolean) != 0
	}
	if sl, ok := typ.Underlying().(*types.Slice); ok {
		if eb, ok := sl.Elem().Underlying().(*types.Basic); ok &&
			(eb.Kind() == types.Byte || eb.Kind() == types.Rune) {
			if at, ok := info.Types[arg]; ok && at.Type != nil {
				if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Info()&types.IsString != 0 {
					return true
				}
			}
		}
	}
	return false
}

// appendElemPointerish reports whether append's element type can alias
// shared state (so appended values carry their taint into the result).
func appendElemPointerish(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return true
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return true
	}
	return pointerish(sl.Elem())
}

// resourceReturnLevels unions each result's resource-group taint across
// every return site; nil when no result carries resource taint.
func (e *tengine) resourceReturnLevels(sig *types.Signature, decl *ast.FuncDecl) map[int]taintBits {
	var out map[int]taintBits
	for _, ret := range collectReturns(decl.Body) {
		for i, b := range e.returnTaints(sig, decl, ret) {
			if b &= taintShared; b != 0 {
				if out == nil {
					out = map[int]taintBits{}
				}
				out[i] |= b
			}
		}
	}
	return out
}

// levelsEqual compares two result-level maps.
func levelsEqual(a, b map[int]taintBits) bool {
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

// writeContainer returns the expression owning the memory an lvalue write
// lands in: the X of the outermost selector/index/star. A bare identifier
// returns nil — rebinding a variable mutates nothing shared.
func writeContainer(lhs ast.Expr) ast.Expr {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return v.X
	case *ast.IndexExpr:
		return v.X
	case *ast.StarExpr:
		return v.X
	}
	return nil
}

// collectReturns gathers the return statements of body that belong to the
// enclosing function (not to nested function literals).
func collectReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, v)
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// returnTaints computes the per-result taint of one return statement given
// the function's signature (handling `return f()` tuple forms and naked
// returns through named results).
func (e *tengine) returnTaints(sig *types.Signature, decl *ast.FuncDecl, ret *ast.ReturnStmt) []taintBits {
	n := sig.Results().Len()
	out := make([]taintBits, n)
	switch {
	case len(ret.Results) == n:
		for i, r := range ret.Results {
			out[i] = e.taintOf(r)
		}
	case len(ret.Results) == 1 && n > 1:
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			copy(out, e.callTaints(call))
		}
	case len(ret.Results) == 0 && n > 0:
		// Naked return: read the named result objects.
		if decl.Type.Results != nil {
			i := 0
			for _, f := range decl.Type.Results.List {
				for _, name := range f.Names {
					if i < n {
						out[i] = e.t[e.objOf(name)]
					}
					i++
				}
				if len(f.Names) == 0 {
					i++
				}
			}
		}
	}
	return out
}
