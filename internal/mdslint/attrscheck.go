package mdslint

// AttrsCheck keeps ldap.Entry's two forms behind its accessor. A
// wire-backed entry (what ldap.Client's searches return, and so what every
// chained hop and every query-cache hit hands around) leaves the Attrs
// field nil and holds its attributes as the BER frame they arrived in;
// Entry.Attributes (and Values, First, Has, …) decode that frame on first
// use. Code outside
// internal/ldap that selects the field directly therefore reads "no
// attributes" off a perfectly good entry — silently — or, writing it, leaves
// the frame and the field disagreeing. Every selector that resolves to the
// field is a finding; composite literals (`&ldap.Entry{DN: d, Attrs: a}`
// builds a decoded entry) are not selectors and stay legal.

import (
	"go/ast"
	"go/types"
)

const ruleAttrs = "attrscheck"

var AttrsCheck = &Analyzer{
	Name: ruleAttrs,
	Doc:  "ldap.Entry.Attrs is nil on a wire-backed entry: outside internal/ldap, go through Attributes()/Values()",
	Run:  runAttrsCheck,
}

func runAttrsCheck(p *Pass) []Finding {
	var out []Finding
	for _, pkg := range p.Pkgs {
		if pkg.Path == pkgLdap {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Attrs" {
					return true
				}
				s := pkg.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal || !typeIs(s.Recv(), pkgLdap, "Entry") {
					return true
				}
				out = append(out, Finding{Pos: p.Fset.Position(sel.Sel.Pos()), Rule: ruleAttrs,
					Msg: exprString(sel) + " is nil when the entry is wire-backed; use " + exprString(sel.X) + ".Attributes() (or Values/First/Has)"})
				return true
			})
		}
	}
	return out
}
