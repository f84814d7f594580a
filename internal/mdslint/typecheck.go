package mdslint

// This file is the type-aware half of the driver (PR 7): a shared
// type-checked load of the whole module built on nothing but the standard
// library (go/parser + go/types + go/importer's source importer — still no
// go/packages or x/tools), plus the per-package fact store the typed
// analyzers use to follow values across files and packages.
//
// The loader groups buildable non-test files by directory, derives each
// directory's import path from the module path in go.mod, and type-checks
// packages recursively: module-local imports resolve against our own parsed
// ASTs, everything else goes through a mutex-guarded importer — compiled
// export data via `go list -export` when the go tool is available (cheap:
// the build cache serves it), the source importer otherwise.
// Build constraints are honored with the default tag set, so files gated
// behind the mdsdebug sanitizer tag are excluded (their !mdsdebug
// counterparts are checked) and the load never sees duplicate declarations.
// Cgo is disabled up front: the source importer cannot process cgo files,
// and nothing in the analysis needs them.
//
// Packages come back in dependency order, which is what lets analyzers
// compute function facts bottom-up (a callee's facts exist before any
// caller is visited) with only a small fixed-point loop left for recursion.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	Path  string  // import path, e.g. "mds2/internal/ber"
	Files []*File // the buildable non-test files that were type-checked
	Types *types.Package
	Info  *types.Info
}

// Import paths of the packages whose invariants the typed analyzers encode.
// Fixture tests reconstruct stub packages under the same paths.
const (
	pkgBer    = "mds2/internal/ber"
	pkgLdap   = "mds2/internal/ldap"
	pkgQcache = "mds2/internal/qcache"
)

// disableCgo turns cgo off for the whole process before any typed load:
// the source importer cannot type-check cgo files (net's resolver, etc.),
// and with CgoEnabled=false go/build selects their pure-Go fallbacks.
var disableCgo = sync.OnceFunc(func() { build.Default.CgoEnabled = false })

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

// pkgGroup is one module-local package awaiting (or holding) its check.
type pkgGroup struct {
	path  string
	files []*File
	deps  []string // module-local imports only

	once sync.Once
	tpkg *types.Package
	info *types.Info
	err  error
}

type moduleLoader struct {
	fset   *token.FileSet
	groups map[string]*pkgGroup
	std    types.Importer
	stdMu  sync.Mutex // the source importer is not safe for concurrent use
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

func (l *moduleLoader) importPkg(p string) (*types.Package, error) {
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	if g := l.groups[p]; g != nil {
		l.check(g)
		return g.tpkg, g.err
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(p)
}

// check type-checks g exactly once, after its module-local dependencies.
// The dependencies are kicked off concurrently; the per-group once makes
// racing ensure calls converge on a single check, and because the Go import
// graph is acyclic the recursion cannot deadlock.
func (l *moduleLoader) check(g *pkgGroup) {
	g.once.Do(func() {
		var wg sync.WaitGroup
		for _, dep := range g.deps {
			dg := l.groups[dep]
			if dg == nil {
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); l.check(dg) }()
		}
		wg.Wait()
		for _, dep := range g.deps {
			if dg := l.groups[dep]; dg != nil && dg.err != nil {
				g.err = fmt.Errorf("import %s: %w", dep, dg.err)
				return
			}
		}
		asts := make([]*ast.File, len(g.files))
		for i, f := range g.files {
			asts[i] = f.AST
		}
		info := newInfo()
		conf := types.Config{Importer: importerFunc(l.importPkg)}
		tpkg, err := conf.Check(g.path, l.fset, asts, info)
		g.tpkg, g.info, g.err = tpkg, info, err
	})
}

// checkAll runs every group to completion and returns the packages in
// dependency (topological) order, module-local edges only.
func (l *moduleLoader) checkAll() ([]*Package, error) {
	paths := make([]string, 0, len(l.groups))
	for p := range l.groups {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var wg sync.WaitGroup
	for _, p := range paths {
		g := l.groups[p]
		wg.Add(1)
		go func() { defer wg.Done(); l.check(g) }()
	}
	wg.Wait()
	var firstErr error
	for _, p := range paths {
		if err := l.groups[p].err; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", p, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Topological order by DFS over local deps, visiting roots in sorted
	// order so the result is deterministic.
	var out []*Package
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var visit func(p string)
	visit = func(p string) {
		g := l.groups[p]
		if g == nil || state[p] != 0 {
			return
		}
		state[p] = 1
		deps := append([]string(nil), g.deps...)
		sort.Strings(deps)
		for _, d := range deps {
			visit(d)
		}
		state[p] = 2
		out = append(out, &Package{Path: p, Files: g.files, Types: g.tpkg, Info: g.info})
	}
	for _, p := range paths {
		visit(p)
	}
	return out, nil
}

// stdImporter builds the importer used for packages outside the module.
// It prefers compiled export data: a single `go list -export -deps`
// invocation over the needed import paths makes the go tool hand back (via
// the build cache) one export file per package, and a gc-importer lookup
// reads those directly. That is orders of magnitude cheaper than
// re-type-checking the standard library from source, and it shrinks the
// mutex-guarded (serial) portion of a load from seconds to
// milliseconds. If the go tool is unavailable or export data is
// incomplete, the source importer remains as the fallback.
func stdImporter(fset *token.FileSet, paths []string) types.Importer {
	if exp := exportData(paths); exp != nil {
		lookup := func(p string) (io.ReadCloser, error) {
			file, ok := exp[p]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(file)
		}
		return importer.ForCompiler(fset, "gc", lookup)
	}
	return importer.ForCompiler(fset, "source", nil)
}

// exportData maps each requested import path (and its transitive
// dependencies) to the path of its compiled export file, or nil if any
// requested package has none.
func exportData(paths []string) map[string]string {
	if len(paths) == 0 {
		return nil
	}
	args := append([]string{"list", "-e", "-export", "-deps",
		"-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		return nil
	}
	exp := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if i := strings.IndexByte(line, '='); i > 0 {
			exp[line[:i]] = line[i+1:]
		}
	}
	for _, p := range paths {
		if _, ok := exp[p]; !ok {
			return nil
		}
	}
	return exp
}

// stdDeps collects the non-module import paths referenced by the grouped
// (buildable) files — the roots the export-data importer must cover.
func stdDeps(groups map[string]*pkgGroup, module string) []string {
	set := map[string]bool{}
	for _, g := range groups {
		for _, f := range g.files {
			for _, imp := range f.AST.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "unsafe" || p == module || strings.HasPrefix(p, module+"/") {
					continue
				}
				set[p] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// localImports extracts the module-local import paths of a file.
func localImports(f *ast.File, module string) []string {
	var out []string
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == module || strings.HasPrefix(p, module+"/") {
			out = append(out, p)
		}
	}
	return out
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// FindModuleRoot walks upward from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule parses every Go file under the module rooted at root and
// type-checks all buildable non-test packages, returning a Pass that
// carries both the full syntax-only file set (tests included, for the
// AST analyzers) and the typed packages in dependency order. File paths
// are reported relative to root. Files are parsed and packages checked
// concurrently.
func LoadModule(fset *token.FileSet, root string) (*Pass, error) {
	disableCgo()
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var rels []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			rels = append(rels, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)

	// Parse everything up front, concurrently: the same ASTs serve the
	// syntax analyzers and, where buildable, the checker.
	files := make([]*File, len(rels))
	errs := make([]error, len(rels))
	parseOne := func(i int) {
		rel := rels[i]
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			errs[i] = err
			return
		}
		af, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			errs[i] = fmt.Errorf("parse %s: %w", rel, err)
			return
		}
		files[i] = &File{Path: rel, AST: af, Src: src}
	}
	var wg sync.WaitGroup
	for i := range rels {
		wg.Add(1)
		go func() { defer wg.Done(); parseOne(i) }()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	groups := map[string]*pkgGroup{}
	for _, f := range files {
		if isTestFile(f.Path) {
			continue
		}
		dir := path.Dir(f.Path)
		absDir := root
		if dir != "." {
			absDir = filepath.Join(root, filepath.FromSlash(dir))
		}
		// Honor build constraints with the default tag set: mdsdebug files
		// are excluded, their release twins included, so the checked
		// package matches what `go build` compiles.
		if ok, err := build.Default.MatchFile(absDir, path.Base(f.Path)); err != nil || !ok {
			continue
		}
		imp := module
		if dir != "." {
			imp = module + "/" + dir
		}
		g := groups[imp]
		if g == nil {
			g = &pkgGroup{path: imp}
			groups[imp] = g
		}
		g.files = append(g.files, f)
		for _, dep := range localImports(f.AST, module) {
			g.deps = append(g.deps, dep)
		}
	}
	for _, g := range groups {
		sort.Strings(g.deps)
		g.deps = dedupeSorted(g.deps)
	}

	ld := &moduleLoader{
		fset:   fset,
		groups: groups,
		std:    stdImporter(fset, stdDeps(groups, module)),
	}
	pkgs, err := ld.checkAll()
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkgs: pkgs}, nil
}

// CheckSources type-checks in-memory fixture files as module "mds2": each
// file's slash path selects its package (the directory) and import path
// ("mds2/" + dir). This is the typed analyzers' test-fixture path — it
// performs no build-constraint or test-file filtering and resolves
// non-local imports through the source importer.
func CheckSources(fset *token.FileSet, files []*File) ([]*Package, error) {
	disableCgo()
	groups := map[string]*pkgGroup{}
	for _, f := range files {
		dir := path.Dir(f.Path)
		imp := "mds2"
		if dir != "." {
			imp = "mds2/" + dir
		}
		g := groups[imp]
		if g == nil {
			g = &pkgGroup{path: imp}
			groups[imp] = g
		}
		g.files = append(g.files, f)
		for _, dep := range localImports(f.AST, "mds2") {
			g.deps = append(g.deps, dep)
		}
	}
	for _, g := range groups {
		sort.Strings(g.deps)
		g.deps = dedupeSorted(g.deps)
	}
	ld := &moduleLoader{
		fset:   fset,
		groups: groups,
		std:    stdImporter(fset, stdDeps(groups, "mds2")),
	}
	return ld.checkAll()
}

func dedupeSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// --- fact store -------------------------------------------------------------

type factKey struct {
	obj types.Object
	key string
}

// SetFact records an analyzer fact about a typed object (a function's
// mutation/alias shape, a field that holds snapshots, a builder delta).
// Facts are how the typed analyzers follow values across package
// boundaries: packages are visited in dependency order, so callee facts
// exist by the time callers are analyzed.
func (p *Pass) SetFact(obj types.Object, key string, v any) {
	if p.facts == nil {
		p.facts = map[factKey]any{}
	}
	p.facts[factKey{obj, key}] = v
}

// Fact retrieves a fact set by SetFact.
func (p *Pass) Fact(obj types.Object, key string) (any, bool) {
	v, ok := p.facts[factKey{obj, key}]
	return v, ok
}

// --- typed helpers ----------------------------------------------------------

// calleeOf resolves the *types.Func a call statically invokes; nil for
// builtins, conversions, and calls through function-typed values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Alias:
			t = types.Unalias(v)
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isMethod reports whether fn is the method pkgPath.typeName.name
// (pointer or value receiver).
func isMethod(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), pkgPath, typeName)
}

// isFunc reports whether fn is the package-level function pkgPath.name.
func isFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath
}

// resultCount returns the number of results a call produces.
func resultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 0
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		return tup.Len()
	}
	if _, ok := tv.Type.(*types.Basic); ok && tv.Type.(*types.Basic).Kind() == types.Invalid {
		return 0
	}
	return 1
}

// rootObj descends selector/index/slice/star/paren/assert chains to the
// root identifier's object; depth counts the steps taken. A non-identifier
// root (call result, literal) yields nil.
func rootObj(info *types.Info, e ast.Expr) (obj types.Object, depth int) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if o := info.Uses[v]; o != nil {
				return o, depth
			}
			return info.Defs[v], depth
		case *ast.SelectorExpr:
			// A package-qualified name roots at the package-level object.
			if id, ok := v.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return info.Uses[v.Sel], depth
				}
			}
			e, depth = v.X, depth+1
		case *ast.IndexExpr:
			e, depth = v.X, depth+1
		case *ast.SliceExpr:
			e, depth = v.X, depth+1
		case *ast.StarExpr:
			e, depth = v.X, depth+1
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil, depth
		}
	}
}

// funcDecls yields every function declaration with a body across the typed
// packages, paired with its object and owning package, in package
// dependency order.
type declInfo struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
	obj  *types.Func
}

func (p *Pass) funcDecls() []declInfo {
	var out []declInfo
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				out = append(out, declInfo{pkg: pkg, file: f, decl: fd, obj: obj})
			}
		}
	}
	return out
}
