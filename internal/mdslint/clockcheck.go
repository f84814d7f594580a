package mdslint

import (
	"go/ast"
)

// ClockCheck enforces the determinism invariant at the heart of the
// soft-state design (§4.3): every timing decision must flow through an
// injected softstate.Clock (or a `now func() time.Time`), never the wall
// clock directly. A single raw time.Now in a refresh/expiry path silently
// bypasses FakeClock tests — exactly what happened with the GSI handshake
// in internal/grip before PR 2.
//
// Exempt by construction:
//   - internal/softstate/clock.go — the one place RealClock touches time
//   - cmd/ and examples/ — process mains wire RealClock at the edge
//   - *_test.go — tests may use the wall clock for timeouts
const ruleClock = "clockcheck"

var ClockCheck = &Analyzer{
	Name: ruleClock,
	Doc:  "no raw time.Now/Sleep/After/Tick/NewTimer/NewTicker/Since/Until outside blessed files; inject softstate.Clock instead",
	Run:  runClockCheck,
}

// wallClockFuncs are the time package entry points that read or wait on
// the wall clock. Pure constructors (time.Date, time.Unix, time.Parse) and
// arithmetic stay legal everywhere.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

func clockCheckExempt(path string) bool {
	return isTestFile(path) ||
		pathIsFile(path, "internal/softstate/clock.go") ||
		pathHasDir(path, "cmd") ||
		pathHasDir(path, "examples")
}

func runClockCheck(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if clockCheckExempt(f.Path) {
			continue
		}
		timeName, ok := importName(f.AST, "time")
		if !ok {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != timeName || !isPkgIdent(id) {
				return true
			}
			if wallClockFuncs[sel.Sel.Name] {
				out = append(out, Finding{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: ruleClock,
					Msg: "raw time." + sel.Sel.Name +
						" bypasses the injected softstate.Clock; thread a Clock or now func() through",
				})
			}
			return true
		})
	}
	return out
}
