package mdslint

// SnapshotCheck enforces the store's copy-on-write contract (DESIGN.md §5,
// internal/ldap/store.go): entries handed out by Store.Find / FindLimit /
// FindCompiled / All and delivered in ChangeEvents are shared immutable
// snapshots. Mutating one corrupts every concurrent reader and the store's
// indexes — silently, until the mdsdebug seal sanitizer (or production)
// catches it. The analyzer taints snapshot-returning calls and every value
// that aliases them (including through helper functions via funcShape
// alias facts and through struct fields via holdsSnapshot facts), then
// flags field writes, element writes, mutating method calls (Add, Set,
// Delete, SortAttrs — anything with a mutates fact), and mutating builtins
// (copy/delete/clear) on tainted values. Clone and Select launder: their
// results are private copies and may be mutated freely.
//
// Client.Search, SearchWith and SearchFunc are sources too: the wire-backed
// entries they deliver share one raw frame, and one lazily decoded attribute
// slice, among every holder, so they are snapshots before any store or cache
// sees them. Search and SearchWith deliver in SearchResult.Entries — a slice
// of the caller's own (it may be sorted or compacted) over shared entries,
// which is how that field is seeded; SearchFunc delivers to its callback.

import (
	"go/ast"
	"go/types"
)

const ruleSnapshot = "snapshotcheck"

var SnapshotCheck = &Analyzer{
	Name: ruleSnapshot,
	Doc:  "entries from Store.Find/FindLimit/ChangeEvent, qcache and Client.Search/SearchWith/SearchFunc are immutable snapshots; Clone/Select before mutating",
	Run:  runSnapshotCheck,
}

const (
	factSnapshotResults = "snapshotResults" // on *types.Func: map[int]taintBits result → resource level
	factHoldsSnapshot   = "holdsSnapshot"   // on field *types.Var: taintBits (elem and/or primary)
)

// isSnapshotSource reports whether fn is one of the snapshot hand-out
// entry points: the store's Find family, the qcache result cache, whose
// hits share the same sealed entries with every caller. (The client's
// searches hand out snapshots too, but not as a result of their own: see
// seedSnapshotFields and snapshotCallback.)
func isSnapshotSource(fn *types.Func) bool {
	switch {
	case isMethod(fn, pkgLdap, "Store", "Find"),
		isMethod(fn, pkgLdap, "Store", "FindLimit"),
		isMethod(fn, pkgLdap, "Store", "FindCompiled"),
		isMethod(fn, pkgLdap, "Store", "All"),
		isMethod(fn, pkgQcache, "Cache", "Get"),
		isMethod(fn, pkgQcache, "Cache", "Lookup"),
		isMethod(fn, pkgQcache, "Cache", "GetOrFill"),
		isMethod(fn, pkgQcache, "Cache", "Entries"):
		return true
	}
	return false
}

// snapshotCallback is the callback form of a source: Client.SearchFunc
// passes each result entry as the first parameter of its entry callback.
func snapshotCallback(callee *types.Func, param int) taintBits {
	if param == 0 && isMethod(callee, pkgLdap, "Client", "SearchFunc") {
		return taintPrimary
	}
	return 0
}

// sourceLevel maps a snapshot source to the lattice level of its first
// result: slice results are fresh containers of shared entries (elem);
// anything else hands out the shared memory itself (primary).
func sourceLevel(fn *types.Func) taintBits {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() > 0 {
		if _, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice); isSlice {
			return taintElem
		}
	}
	return taintPrimary
}

// seedSnapshotFields marks the ldap fields that hold snapshots wherever the
// struct came from: ChangeEvent.Entry — the delivery path shares the store's
// snapshot without cloning — and SearchResult.Entries, the result of
// Client.Search and SearchWith: a fresh container of entries that are
// immutable from birth, their attributes being the frame they arrived in,
// shared with everything that entry (or a Project / WithDN of it) is ever
// handed to.
func seedSnapshotFields(p *Pass) {
	for _, pkg := range p.Pkgs {
		if pkg.Path != pkgLdap {
			continue
		}
		for _, seed := range []struct {
			typ, field string
			level      taintBits
		}{{"ChangeEvent", "Entry", taintPrimary}, {"SearchResult", "Entries", taintElem}} {
			obj := pkg.Types.Scope().Lookup(seed.typ)
			if obj == nil {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Name() == seed.field {
					p.SetFact(f, factHoldsSnapshot, seed.level)
				}
			}
		}
	}
}

func snapshotTaintConfig(p *Pass, pkg *Package, changed *bool) *taintConfig {
	return &taintConfig{
		info:          pkg.Info,
		callbackTaint: snapshotCallback,
		callTaint: func(call *ast.CallExpr, callee *types.Func, recv taintBits, args []taintBits, nres int) []taintBits {
			if callee == nil || isCloneLaunder(callee) {
				return nil
			}
			res := make([]taintBits, nres)
			if nres > 0 && isSnapshotSource(callee) {
				// The Find family returns a fresh slice whose elements are
				// shared snapshots: elem for slice results, primary if a
				// source ever hands out an entry directly.
				res[0] |= sourceLevel(callee)
			}
			if v, ok := p.Fact(callee, factSnapshotResults); ok {
				for i, b := range v.(map[int]taintBits) {
					if i < nres {
						res[i] |= b
					}
				}
			}
			applyShapeAliases(p, callee, recv, args, res)
			return res
		},
		// The field fact is level-aware: a field holding a fresh container of
		// snapshots (elem — e.g. a reply struct carrying a cache hand-out)
		// reads back as elem, so sorting or compacting that container stays
		// legal; only fields aliasing snapshot memory itself (primary, like
		// ChangeEvent.Entry) make every write through them a finding.
		fieldRead: func(field *types.Var) taintBits {
			if v, ok := p.Fact(field, factHoldsSnapshot); ok {
				return v.(taintBits)
			}
			return 0
		},
		onFieldStore: func(field *types.Var, bits taintBits) {
			bits &= taintShared
			if bits == 0 {
				return
			}
			var old taintBits
			if v, ok := p.Fact(field, factHoldsSnapshot); ok {
				old = v.(taintBits)
			}
			if old|bits != old {
				p.SetFact(field, factHoldsSnapshot, old|bits)
				if changed != nil {
					*changed = true
				}
			}
		},
	}
}

func runSnapshotCheck(p *Pass) []Finding {
	p.ensureShapes()
	seedSnapshotFields(p)
	decls := p.funcDecls()

	// Fact fixed point: discover functions that return snapshots and
	// fields that hold them, module-wide.
	for range 4 {
		changed := false
		for _, d := range decls {
			en := newTaintEngine(snapshotTaintConfig(p, d.pkg, &changed))
			en.run(d.decl.Body)
			sig := d.obj.Type().(*types.Signature)
			levels := en.resourceReturnLevels(sig, d.decl)
			if levels != nil {
				if v, ok := p.Fact(d.obj, factSnapshotResults); !ok || !levelsEqual(v.(map[int]taintBits), levels) {
					p.SetFact(d.obj, factSnapshotResults, levels)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	// Findings pass.
	var out []Finding
	for _, d := range decls {
		info := d.pkg.Info
		en := newTaintEngine(snapshotTaintConfig(p, d.pkg, nil))
		en.run(d.decl.Body)
		report := func(n ast.Node, msg string) {
			out = append(out, Finding{Pos: p.Fset.Position(n.Pos()), Rule: ruleSnapshot, Msg: msg})
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					// primary only: writing the top level of a fresh
					// container of snapshots (elem) touches no shared memory.
					if c := writeContainer(lhs); c != nil && en.taintOf(c)&taintPrimary != 0 {
						report(lhs, "write to "+exprString(lhs)+" mutates a shared store snapshot; Clone or Select a private copy first")
					}
				}
			case *ast.IncDecStmt:
				if c := writeContainer(v.X); c != nil && en.taintOf(c)&taintPrimary != 0 {
					report(v.X, "write to "+exprString(v.X)+" mutates a shared store snapshot; Clone or Select a private copy first")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
					if _, isB := info.Uses[id].(*types.Builtin); isB {
						if (id.Name == "copy" || id.Name == "delete" || id.Name == "clear") && len(v.Args) > 0 &&
							en.taintOf(v.Args[0])&taintPrimary != 0 {
							report(v, id.Name+" on "+exprString(v.Args[0])+" mutates a shared store snapshot; Clone or Select a private copy first")
						}
						return true
					}
				}
				callee := calleeOf(info, v)
				if callee != nil && isCloneLaunder(callee) {
					return true
				}
				sh := shapeOf(p, callee)
				if sh == nil || len(sh.mutates) == 0 {
					return true
				}
				sig, ok := callee.Type().(*types.Signature)
				if !ok {
					return true
				}
				var recv taintBits
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil {
					recv = en.taintOf(sel.X)
				}
				args := make([]taintBits, len(v.Args))
				for i, a := range v.Args {
					args[i] = en.taintOf(a)
				}
				for src, sev := range sh.mutates {
					in := inputTaint(sig, src, recv, args)
					// A shallow callee write hits the argument's own memory
					// (dangerous iff that IS snapshot memory); a deep write
					// follows references, so a fresh container of snapshots
					// is enough to corrupt shared state.
					hit := sev&mutShallow != 0 && in&taintPrimary != 0 ||
						sev&mutDeep != 0 && in&taintShared != 0
					if hit {
						report(v, callee.Name()+" mutates its "+srcName(src)+", and the value passed reaches a shared store snapshot; Clone or Select a private copy first")
					}
				}
			}
			return true
		})
	}
	return out
}

func srcName(src int) string {
	if src == -1 {
		return "receiver"
	}
	return "argument"
}
