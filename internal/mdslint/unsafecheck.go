package mdslint

import "go/ast"

// UnsafeCheck keeps zero-copy view minting inside internal/ber. A string or
// slice made with unsafe.String/unsafe.Slice aliases memory that ber's frame
// and chunk buffers recycle; ber hands such views out only under its own
// lifetime protocol (viewOK), and the mdsdebug sanitizers poison exactly
// those buffers. A view minted anywhere else escapes both.
//
// Exempt: internal/ber itself, and *_test.go.
const ruleUnsafe = "unsafecheck"

var UnsafeCheck = &Analyzer{
	Name: ruleUnsafe,
	Doc:  "unsafe.String/Slice/StringData/SliceData only in internal/ber; copy instead of minting a view elsewhere",
	Run:  runUnsafeCheck,
}

var viewMinters = map[string]bool{"String": true, "Slice": true, "StringData": true, "SliceData": true}

func runUnsafeCheck(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if isTestFile(f.Path) || pathHasDir(f.Path, "internal/ber") {
			continue
		}
		unsafeName, ok := importName(f.AST, "unsafe")
		if !ok {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == unsafeName && isPkgIdent(id) && viewMinters[sel.Sel.Name] {
				out = append(out, Finding{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: ruleUnsafe,
					Msg:  "zero-copy view minting with unsafe." + sel.Sel.Name + " is internal/ber's privilege (viewOK protocol); copy instead",
				})
			}
			return true
		})
	}
	return out
}
