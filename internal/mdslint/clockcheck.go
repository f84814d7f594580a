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
// A context bounded with context.WithTimeout or WithDeadline is the same
// leak one step removed: it expires on the runtime clock whatever the
// injected Clock says (a client's chained search was bounded that way, so
// a FakeClock run could not time a hop out).
//
// Exempt by construction:
//   - internal/softstate/clock.go — the one place RealClock touches time
//   - cmd/ and examples/ — process mains wire RealClock at the edge
//   - *_test.go — tests may use the wall clock for timeouts
const ruleClock = "clockcheck"

var ClockCheck = &Analyzer{
	Name: ruleClock,
	Doc:  "no raw time.Now/Sleep/After/Tick/NewTimer/NewTicker/Since/Until or context.WithTimeout/WithDeadline outside blessed files; inject softstate.Clock instead",
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

// wallClockContext are the context constructors whose deadline runs on the
// wall clock.
var wallClockContext = map[string]bool{
	"WithTimeout":       true,
	"WithTimeoutCause":  true,
	"WithDeadline":      true,
	"WithDeadlineCause": true,
}

// wallClockPkg is a package whose funcs the rule bans, and what a finding
// says of them.
type wallClockPkg struct {
	path  string
	funcs map[string]bool
	why   string
}

var wallClockPkgs = []wallClockPkg{
	{"time", wallClockFuncs, "bypasses the injected softstate.Clock; thread a Clock or now func() through"},
	{"context", wallClockContext, "expires on the runtime clock, not the injected softstate.Clock; select on a Clock timer instead"},
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
		banned := map[string]wallClockPkg{} // by the name the file imports it under
		for _, pkg := range wallClockPkgs {
			if name, ok := importName(f.AST, pkg.path); ok {
				banned[name] = pkg
			}
		}
		if len(banned) == 0 {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !isPkgIdent(id) {
				return true
			}
			if pkg, ok := banned[id.Name]; ok && pkg.funcs[sel.Sel.Name] {
				out = append(out, Finding{
					Pos:  p.Fset.Position(sel.Pos()),
					Rule: ruleClock,
					Msg:  "raw " + pkg.path + "." + sel.Sel.Name + " " + pkg.why,
				})
			}
			return true
		})
	}
	return out
}
