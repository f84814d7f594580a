package mdslint

// PoolCheck enforces the pooled-buffer lifetime contract (internal/ber):
// values obtained from sync.Pool.Get, frames read by ber.ReadFrame and
// packets decoded by ber.ReadPacketBuf alias a buffer that will be recycled
// — they are only valid until the next Get/ReadFrame/ReadPacketBuf on the
// same buffer. Such values (and everything reachable from them: Value
// slices, Children, Child(i) results, helpers that pass them through —
// discovered via funcShape alias facts) must not escape the frame: the
// analyzer flags storing them into struct fields or package-level
// variables, sending them on channels, and capturing them in go-launched
// goroutines.
//
// Laundering is explicit cloning, and the engine understands the idioms:
// string(b) and Packet.Str() produce immutable strings, []byte(nil)-append
// and copy produce fresh bytes, Clone-named helpers copy by convention.
// Returning a frame-aliased value is NOT an escape — that is how the
// ReadFrame and ReadPacketBuf contract propagates — and instead gives the
// function a frameResults fact so its callers inherit the taint.
//
// A second discipline rides along: zero-copy view minting via
// unsafe.String/unsafe.Slice is internal/ber's privilege (the viewOK
// protocol); any use outside that package is flagged.

import (
	"go/ast"
	"go/types"
)

const rulePool = "poolcheck"

var PoolCheck = &Analyzer{
	Name: rulePool,
	Doc:  "sync.Pool.Get, ber.ReadFrame and ber.ReadPacketBuf values must not outlive their frame: no field/global stores, channel sends, or goroutine capture without a clone",
	Run:  runPoolCheck,
}

const factFrameResults = "frameResults" // on *types.Func: map[int]taintBits result → resource level

// isFrameSource reports whether fn hands out frame-aliased memory.
func isFrameSource(fn *types.Func) bool {
	return isFunc(fn, pkgBer, "ReadFrame") ||
		isFunc(fn, pkgBer, "ReadPacketBuf") ||
		isMethod(fn, "sync", "Pool", "Get")
}

func poolTaintConfig(p *Pass, pkg *Package) *taintConfig {
	return &taintConfig{
		info: pkg.Info,
		callTaint: func(call *ast.CallExpr, callee *types.Func, recv taintBits, args []taintBits, nres int) []taintBits {
			if callee == nil || isCloneLaunder(callee) {
				return nil
			}
			res := make([]taintBits, nres)
			if nres > 0 && isFrameSource(callee) {
				res[0] |= taintPrimary
			}
			if v, ok := p.Fact(callee, factFrameResults); ok {
				for i, b := range v.(map[int]taintBits) {
					if i < nres {
						res[i] |= b
					}
				}
			}
			applyShapeAliases(p, callee, recv, args, res)
			return res
		},
	}
}

func runPoolCheck(p *Pass) []Finding {
	p.ensureShapes()
	decls := p.funcDecls()

	// Fact fixed point: functions whose results alias a frame source.
	for range 4 {
		changed := false
		for _, d := range decls {
			en := newTaintEngine(poolTaintConfig(p, d.pkg))
			en.run(d.decl.Body)
			sig := d.obj.Type().(*types.Signature)
			levels := en.resourceReturnLevels(sig, d.decl)
			if levels != nil {
				if v, ok := p.Fact(d.obj, factFrameResults); !ok || !levelsEqual(v.(map[int]taintBits), levels) {
					p.SetFact(d.obj, factFrameResults, levels)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	var out []Finding
	for _, d := range decls {
		info := d.pkg.Info
		en := newTaintEngine(poolTaintConfig(p, d.pkg))
		en.run(d.decl.Body)
		report := func(n ast.Node, msg string) {
			out = append(out, Finding{Pos: p.Fset.Position(n.Pos()), Rule: rulePool, Msg: msg})
		}
		isGlobal := func(obj types.Object) bool {
			v, ok := obj.(*types.Var)
			return ok && !v.IsField() && v.Parent() == d.pkg.Types.Scope()
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) != len(v.Rhs) {
					// Tuple assigns from source calls bind to plain idents
					// in practice; the escape forms below are all 1:1.
					return true
				}
				for i, lhs := range v.Lhs {
					rbits := en.taintOf(v.Rhs[i])
					if rbits&taintShared == 0 {
						continue
					}
					lhs = ast.Unparen(lhs)
					// Store into a struct field of something that is not
					// itself frame-aliased: the frame escapes its owner.
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if field, okf := info.Uses[sel.Sel].(*types.Var); okf && field.IsField() &&
							en.taintOf(sel.X)&taintShared == 0 {
							report(v, "frame-aliased value stored in "+exprString(lhs)+" outlives its buffer; clone it (or copy with Str) before retaining")
							continue
						}
					}
					// Store into (or through) a package-level variable.
					if obj, _ := rootObj(info, lhs); obj != nil && isGlobal(obj) {
						report(v, "frame-aliased value stored in package-level "+exprString(lhs)+" outlives its buffer; clone it before retaining")
					}
				}
			case *ast.SendStmt:
				if en.taintOf(v.Value)&taintShared != 0 {
					report(v, "frame-aliased value sent on a channel escapes its buffer's lifetime; clone it before sending")
				}
			case *ast.GoStmt:
				for _, a := range v.Call.Args {
					if en.taintOf(a)&taintShared != 0 {
						report(v, "frame-aliased value passed to a goroutine races the buffer's next reuse; clone it first")
					}
				}
				if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
					reported := false
					ast.Inspect(lit.Body, func(m ast.Node) bool {
						id, ok := m.(*ast.Ident)
						if !ok || reported {
							return !reported
						}
						obj := info.Uses[id]
						if obj == nil || en.t[obj]&taintShared == 0 {
							return true
						}
						// Captured only if declared outside the literal.
						if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
							report(v, "goroutine captures frame-aliased "+id.Name+", racing the buffer's next reuse; clone it first")
							reported = true
						}
						return !reported
					})
				}
			case *ast.CallExpr:
				// unsafe.String/unsafe.Slice outside internal/ber.
				if d.pkg.Path == pkgBer {
					return true
				}
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok {
						if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "unsafe" &&
							(sel.Sel.Name == "String" || sel.Sel.Name == "Slice" || sel.Sel.Name == "StringData" || sel.Sel.Name == "SliceData") {
							report(v, "zero-copy view minting with unsafe."+sel.Sel.Name+" is internal/ber's privilege (viewOK protocol); copy instead")
						}
					}
				}
			}
			return true
		})
	}
	return out
}
