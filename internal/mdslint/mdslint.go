// Package mdslint is the project's custom static-analysis driver. It
// enforces the concurrency and determinism invariants the soft-state design
// depends on (DESIGN.md "Static analysis & invariants"):
//
//   - clockcheck: all timing flows through softstate.Clock — no raw
//     time.Now / time.Sleep / time.After outside the blessed files, so
//     FakeClock tests exercise the same code paths production runs.
//   - lockcheck: no mutex held across a channel operation or other call
//     that can block (the class of bug behind the GIIS pool
//     use-after-close fixed in PR 1).
//   - errchecklite: no dropped error returns from ber/ldap encode/decode
//     paths or net.Conn writes — a silently failed write corrupts the
//     protocol stream.
//   - goroutinecheck: no goroutine launched without a cancellation path
//     (context, done channel, Clock.After, or a blocking call that fails
//     when its resource closes).
//   - unsafecheck: zero-copy view minting (unsafe.String, unsafe.Slice,
//     unsafe.StringData, unsafe.SliceData) stays inside internal/ber.
//
// Every analyzer reads syntax only: stdlib go/parser over one walk of the
// module (LoadModule), no type checker, no go/packages or x/tools. The
// invariants a type checker would be needed for — sealed snapshots, frame
// lifetimes, balanced Builder elements — are held at run time instead, by
// the mdsdebug sanitizers and the oracle fuzzers (DESIGN.md "Invariant
// catalog"). Each analyzer documents the heuristics it uses and the
// exemptions it grants. Findings are suppressed, one line at a time, with
//
//	//mdslint:ignore <rule> <reason>
//
// placed on the offending line or the line directly above it. A directive
// without a reason is itself a finding: exceptions must say why.
package mdslint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file.
type File struct {
	// Path is the slash-separated path as discovered (relative to the
	// lint root for ./... walks). Exemption rules match against it.
	Path string
	AST  *ast.File
	Src  []byte
}

// Pass hands every analyzer the full parsed file set so cross-file facts
// (like which ber/ldap functions return errors) are available.
type Pass struct {
	Fset  *token.FileSet
	Files []*File

	index *declIndex // lazily built by Index()
}

// Finding is one diagnostic.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass) []Finding
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{ClockCheck, LockCheck, ErrCheckLite, GoroutineCheck, UnsafeCheck}
}

// IgnoreDirective is the parsed form of //mdslint:ignore <rule> <reason>.
// A directive on a line of its own covers the line below it; a directive
// trailing code covers only that line.
type IgnoreDirective struct {
	Line   int // the line the directive applies to
	Rule   string
	Reason string
}

const directivePrefix = "mdslint:ignore"

// directives extracts every mdslint:ignore comment from a file, keyed by
// the line the comment sits on. Malformed directives (no rule, or no
// reason) are reported as findings so exceptions stay auditable.
func directives(fset *token.FileSet, f *File) (map[int][]IgnoreDirective, []Finding) {
	out := map[int][]IgnoreDirective{}
	var bad []Finding
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			rule, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if rule == "" || reason == "" {
				bad = append(bad, Finding{Pos: pos, Rule: "directive",
					Msg: "malformed //mdslint:ignore: want \"//mdslint:ignore <rule> <reason>\""})
				continue
			}
			line := pos.Line
			if ownLine(f.Src, pos.Offset) {
				line++
			}
			out[line] = append(out[line], IgnoreDirective{Line: line, Rule: rule, Reason: reason})
		}
	}
	return out, bad
}

// suppressed reports whether a finding at line is covered by a directive
// scoped to that line.
func suppressed(dirs map[int][]IgnoreDirective, rule string, line int) bool {
	for _, d := range dirs[line] {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// ownLine reports whether only whitespace precedes offset on its line —
// i.e. the comment starting there stands alone.
func ownLine(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0 && src[i] != '\n'; i-- {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}

// RunAll executes every analyzer over the pass, applies ignore directives,
// and returns the surviving findings sorted by position.
func RunAll(p *Pass, analyzers []*Analyzer) []Finding {
	var all []Finding
	dirsByPath := map[string]map[int][]IgnoreDirective{}
	for _, f := range p.Files {
		d, bad := directives(p.Fset, f)
		dirsByPath[f.Path] = d
		all = append(all, bad...)
	}
	for _, a := range analyzers {
		for _, fd := range a.Run(p) {
			dirs := dirsByPath[fd.Pos.Filename]
			if suppressed(dirs, fd.Rule, fd.Pos.Line) {
				continue
			}
			all = append(all, fd)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return all
}

// ParseSource builds a File from in-memory source — the test fixture path.
func ParseSource(fset *token.FileSet, path, src string) (*File, error) {
	af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &File{Path: path, AST: af, Src: []byte(src)}, nil
}

// --- shared path predicates -------------------------------------------------

// isTestFile reports whether path is a Go test file.
func isTestFile(path string) bool { return strings.HasSuffix(path, "_test.go") }

// pathHasDir reports whether the slash path contains dir as a complete
// path segment sequence (e.g. pathHasDir("a/cmd/gris/main.go", "cmd")).
func pathHasDir(path, dir string) bool {
	p := "/" + strings.Trim(filepath.ToSlash(path), "/") + "/"
	return strings.Contains(p, "/"+strings.Trim(dir, "/")+"/")
}

// pathIsFile reports whether the slash path ends with the given
// slash-separated suffix as complete segments.
func pathIsFile(path, suffix string) bool {
	p := "/" + strings.Trim(filepath.ToSlash(path), "/")
	return strings.HasSuffix(p, "/"+strings.Trim(suffix, "/"))
}

// importName returns the local name a file binds the given import path to,
// and whether the import exists. An unnamed import yields its base name.
func importName(f *ast.File, importPath string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != importPath {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// isPkgIdent reports whether id plausibly refers to a package (it is not
// resolved to any local declaration by the parser).
func isPkgIdent(id *ast.Ident) bool { return id.Obj == nil }

// exprString renders a (small) expression for diagnostics and for matching
// lock/unlock receivers textually.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.ParenExpr:
		return "(" + exprString(v.X) + ")"
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(…)"
	default:
		return fmt.Sprintf("%T", e)
	}
}
