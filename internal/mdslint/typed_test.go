package mdslint

// Fixture tests for the typed analyzers. Each case type-checks a small
// in-memory module (CheckSources) whose file paths mirror the real tree —
// the analyzers key on the mds2/internal/ber and mds2/internal/ldap import
// paths — and asserts that findings appear exactly on the lines marked
// `// want`, and nowhere else.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// berStub mimics the parts of internal/ber the typed analyzers key on.
const berStub = `package ber

type Packet struct {
	Tag      int
	Value    []byte
	Children []*Packet
}

func (p *Packet) Str() string { return string(p.Value) }

func (p *Packet) Clone() *Packet {
	cp := &Packet{Tag: p.Tag, Value: append([]byte(nil), p.Value...)}
	for _, c := range p.Children {
		cp.Children = append(cp.Children, c.Clone())
	}
	return cp
}

func ReadPacketBuf(buf []byte) (*Packet, error) { return &Packet{Value: buf}, nil }

func ReadFrame(buf []byte) ([]byte, error) { return buf, nil }

type Builder struct {
	buf   []byte
	stack []int
}

func (b *Builder) Begin(tag int)          { b.stack = append(b.stack, len(b.buf)) }
func (b *Builder) BeginPrimitive(tag int) { b.stack = append(b.stack, len(b.buf)) }
func (b *Builder) End()                   { b.stack = b.stack[:len(b.stack)-1] }
func (b *Builder) Reset()                 { b.buf, b.stack = b.buf[:0], b.stack[:0] }
func (b *Builder) Int(v int64)            {}
func (b *Builder) Bytes() []byte          { return b.buf }
`

// ldapStub mimics the parts of internal/ldap the typed analyzers key on.
const ldapStub = `package ldap

type Attribute struct {
	Name   string
	Values []string
}

type Entry struct {
	DN    string
	Attrs []Attribute
}

func (e *Entry) Clone() *Entry {
	out := &Entry{DN: e.DN, Attrs: make([]Attribute, len(e.Attrs))}
	for i, a := range e.Attrs {
		out.Attrs[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	return out
}

func (e *Entry) Select(names []string) *Entry { return e.Clone() }

func (e *Entry) Project(names []string) *Entry {
	if len(names) == 0 {
		return e
	}
	out := &Entry{DN: e.DN}
	for _, n := range names {
		out.Attrs = append(out.Attrs, Attribute{Name: n, Values: e.Values(n)})
	}
	return out
}

func (e *Entry) Values(name string) []string {
	for _, a := range e.Attrs {
		if a.Name == name {
			return a.Values
		}
	}
	return nil
}

func (e *Entry) Add(name string, vals ...string) {
	e.Attrs = append(e.Attrs, Attribute{Name: name, Values: vals})
}

func (e *Entry) Set(name string, vals ...string) {
	for i := range e.Attrs {
		if e.Attrs[i].Name == name {
			e.Attrs[i].Values = vals
			return
		}
	}
	e.Add(name, vals...)
}

func (e *Entry) WithDN(dn string) *Entry { return &Entry{DN: dn, Attrs: e.Attrs} }

func (e *Entry) Attributes() []Attribute { return e.Attrs }

type SearchResult struct{ Entries []*Entry }

type Client struct{ last *SearchResult }

func (c *Client) Search(base string) (*SearchResult, error) { return c.last, nil }

func (c *Client) SearchWith(base string) (*SearchResult, error) { return c.last, nil }

func (c *Client) SearchFunc(base string, entryFn func(*Entry, []string) error) error {
	for _, e := range c.last.Entries {
		if err := entryFn(e, nil); err != nil {
			return err
		}
	}
	return nil
}

type ChangeEvent struct {
	Type  int
	Entry *Entry
}

type Store struct{ entries []*Entry }

func (s *Store) Find(base string) []*Entry { return append([]*Entry(nil), s.entries...) }

func (s *Store) FindLimit(base string, n int) ([]*Entry, bool) { return s.Find(base), false }

func (s *Store) FindCompiled(base string, n int) ([]*Entry, bool) { return s.Find(base), false }

func (s *Store) All() []*Entry { return s.Find("") }
`

// qcacheStub mimics the parts of internal/qcache that snapshotcheck keys
// on: the Cache hand-out methods whose hits share sealed entries across
// callers.
const qcacheStub = `package qcache

import (
	"time"

	"mds2/internal/ldap"
)

type Outcome int

type Region struct {
	Owner string
	Base  string
}

type Cache struct{ entries []*ldap.Entry }

func (c *Cache) Get(key string) ([]*ldap.Entry, bool) {
	return append([]*ldap.Entry(nil), c.entries...), len(c.entries) > 0
}

func (c *Cache) Lookup(key []byte) ([]*ldap.Entry, bool) {
	return append([]*ldap.Entry(nil), c.entries...), len(c.entries) > 0
}

func (c *Cache) GetOrFill(key string, region Region, bound time.Time,
	fill func() ([]*ldap.Entry, error)) ([]*ldap.Entry, Outcome, error) {
	return append([]*ldap.Entry(nil), c.entries...), 0, nil
}

func (c *Cache) Entries() []*ldap.Entry {
	return append([]*ldap.Entry(nil), c.entries...)
}
`

// runTyped type-checks the fixture module and runs one analyzer.
func runTyped(t *testing.T, a *Analyzer, files map[string]string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	var fs []*File
	for p, src := range files {
		f, err := ParseSource(fset, p, src)
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Path < fs[j].Path })
	pkgs, err := CheckSources(fset, fs)
	if err != nil {
		t.Fatalf("type check: %v", err)
	}
	pass := &Pass{Fset: fset, Files: fs, Pkgs: pkgs}
	return RunAll(pass, []*Analyzer{a})
}

// checkWants asserts findings appear exactly on `// want` lines.
func checkWants(t *testing.T, files map[string]string, findings []Finding) {
	t.Helper()
	want := map[string]bool{}
	for p, src := range files {
		for i, line := range strings.Split(src, "\n") {
			if strings.Contains(line, "// want") {
				want[fmt.Sprintf("%s:%d", p, i+1)] = true
			}
		}
	}
	got := map[string]bool{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)] = true
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing finding at %s", k)
		}
	}
	for _, f := range findings {
		k := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		if !want[k] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestSnapshotCheckFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"direct field write", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	es := s.Find("o=grid")
	es[0].DN = "o=evil" // want
}
`},
		{"write through helper alias", `package app

import "mds2/internal/ldap"

func first(es []*ldap.Entry) *ldap.Entry { return es[0] }

func f(s *ldap.Store) {
	e := first(s.Find("o=grid"))
	e.Attrs[0].Values[0] = "x" // want
}
`},
		{"mutating method on ranged snapshot", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	for _, e := range s.Find("o=grid") {
		e.Add("seen", "1") // want
	}
}
`},
		{"deep set through FindLimit", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	es, _ := s.FindLimit("o=grid", 10)
	es[0].Set("hn", "x") // want
}
`},
		{"set through FindCompiled", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	es, _ := s.FindCompiled("o=grid", 10)
	es[0].Set("hn", "x") // want
}
`},
		{"projection shares the snapshot", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	es, _ := s.FindCompiled("o=grid", 10)
	es[0].Project(nil).Set("hn", "x") // want
	vs := es[0].Project([]string{"hn"}).Values("hn")
	vs[0] = "x" // want
}
`},
		{"change event entry", `package app

import "mds2/internal/ldap"

func deliver(ev ldap.ChangeEvent) {
	ev.Entry.Add("seen", "1") // want
}
`},
		{"copy builtin onto attribute view", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	vs := s.Find("o=grid")[0].Values("hn")
	copy(vs, []string{"x"}) // want
}
`},
		{"snapshot via field store and reload", `package app

import "mds2/internal/ldap"

type cache struct{ hot *ldap.Entry }

func fill(c *cache, s *ldap.Store) { c.hot = s.Find("o=grid")[0] }

func f(c *cache) {
	c.hot.DN = "o=evil" // want
}
`},
		{"clone launders", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	c := s.Find("o=grid")[0].Clone()
	c.DN = "o=mine"
	c.Add("x", "y")
}
`},
		{"select launders", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	c := s.Find("o=grid")[0].Select([]string{"hn"})
	c.Attrs[0].Values[0] = "x"
}
`},
		{"fresh container of snapshots is writable", `package app

import "mds2/internal/ldap"

func f(s *ldap.Store) {
	out := append([]*ldap.Entry(nil), s.Find("o=grid")...)
	out[0], out[1] = out[1], out[0]
	out = out[:1]
	_ = out
}
`},
		{"sorting a fresh result slice is fine", `package app

import "mds2/internal/ldap"

func reorder(es []*ldap.Entry) {
	for i := range es {
		es[i] = es[len(es)-1-i]
	}
}

func f(s *ldap.Store) {
	reorder(s.Find("o=grid"))
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ldap/ldap.go": ldapStub,
				"internal/app/app.go":   tc.src,
			}
			checkWants(t, files, runTyped(t, SnapshotCheck, files))
		})
	}
}

// TestSnapshotCheckQcacheFixtures pins the query-cache contract: entries
// handed out by qcache.Cache are the same sealed snapshots every other
// cache hit sees, so mutating one is a finding, while reordering the fresh
// container they arrive in — or cloning first — is fine.
func TestSnapshotCheckQcacheFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"mutating a cache hit", `package app

import "mds2/internal/qcache"

func f(c *qcache.Cache) {
	es, _ := c.Get("k")
	es[0].DN = "o=evil" // want
}
`},
		{"mutating method on GetOrFill result", `package app

import (
	"time"

	"mds2/internal/ldap"
	"mds2/internal/qcache"
)

func f(c *qcache.Cache) {
	es, _, _ := c.GetOrFill("k", qcache.Region{}, time.Time{},
		func() ([]*ldap.Entry, error) { return nil, nil })
	for _, e := range es {
		e.Set("hn", "x") // want
	}
}
`},
		{"writing through a Lookup hit", `package app

import "mds2/internal/qcache"

func f(c *qcache.Cache, key []byte) {
	if es, ok := c.Lookup(key); ok {
		es[0].Attrs[0].Values[0] = "x" // want
	}
}
`},
		{"sorting a Lookup hit's container is fine", `package app

import (
	"slices"

	"mds2/internal/ldap"
	"mds2/internal/qcache"
)

func f(c *qcache.Cache, key []byte) {
	es, _ := c.Lookup(key)
	slices.SortFunc(es, func(a, b *ldap.Entry) int { return len(a.DN) - len(b.DN) })
	es[0], es[1] = es[1], es[0]
}
`},
		{"deep write through Entries", `package app

import "mds2/internal/qcache"

func f(c *qcache.Cache) {
	c.Entries()[0].Attrs[0].Values[0] = "x" // want
}
`},
		{"clone launders a cache hit", `package app

import "mds2/internal/qcache"

func f(c *qcache.Cache) {
	es, _ := c.Get("k")
	e := es[0].Clone()
	e.DN = "o=mine"
	e.Add("x", "y")
}
`},
		{"reordering the hand-out container is fine", `package app

import "mds2/internal/qcache"

func f(c *qcache.Cache) {
	es, _ := c.Get("k")
	es[0], es[len(es)-1] = es[len(es)-1], es[0]
	es = es[:1]
	_ = es
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ldap/ldap.go":     ldapStub,
				"internal/qcache/qcache.go": qcacheStub,
				"internal/app/app.go":       tc.src,
			}
			checkWants(t, files, runTyped(t, SnapshotCheck, files))
		})
	}
}

// TestSnapshotCheckWireFixtures pins the client's one immutability rule:
// entries from Client.Search, SearchWith and SearchFunc are immutable from
// birth — their attributes are one shared frame — so renaming one in place
// (what the hop's view graft used to do to decoded entries) is a finding,
// as is a write through the WithDN shell that shares the frame, whether the
// entry was returned or handed to SearchFunc's callback; building a fresh
// result slice, or cloning, is fine.
func TestSnapshotCheckWireFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"grafting a result entry in place", `package app

import "mds2/internal/ldap"

func f(c *ldap.Client) []*ldap.Entry {
	res, _ := c.SearchWith("o=grid")
	for _, e := range res.Entries {
		e.DN = "hn=x, o=view" // want
	}
	res.Entries[0].Add("seen", "1") // want
	return res.Entries
}

func g(c *ldap.Client) {
	res, _ := c.Search("o=grid")
	res.Entries[0].Set("seen", "1") // want
}
`},
		{"WithDN shares the frame", `package app

import "mds2/internal/ldap"

func f(c *ldap.Client) {
	res, _ := c.Search("o=grid")
	g := res.Entries[0].WithDN("hn=x, o=view")
	g.Attributes()[0].Values[0] = "x" // want
}
`},
		{"fresh slice of renamed shells is fine", `package app

import "mds2/internal/ldap"

func f(c *ldap.Client) []*ldap.Entry {
	res, _ := c.SearchWith("o=grid")
	grafted := make([]*ldap.Entry, len(res.Entries))
	for i, e := range res.Entries {
		grafted[i] = e.WithDN("hn=x, o=view")
	}
	own := res.Entries[0].Clone()
	own.DN = "o=mine"
	return append(grafted, own)
}
`},
		{"a streamed entry is one too", `package app

import "mds2/internal/ldap"

func f(c *ldap.Client) []*ldap.Entry {
	var kept []*ldap.Entry
	c.SearchFunc("o=grid", func(e *ldap.Entry, ctls []string) error {
		e.Add("seen", "1") // want
		e.DN = "hn=x, o=view" // want
		ctls[0] = "mine"
		own := e.Clone()
		own.Add("seen", "1")
		kept = append(kept, e, own)
		return nil
	})
	return kept
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ldap/ldap.go": ldapStub,
				"internal/app/app.go":   tc.src,
			}
			checkWants(t, files, runTyped(t, SnapshotCheck, files))
		})
	}
}

// TestAttrsCheckFixtures: selecting ldap.Entry's Attrs field is a finding
// everywhere but inside internal/ldap — it is nil on a wire-backed entry —
// while the accessors, a composite literal building a decoded entry, and
// another type's field of the same name are not.
func TestAttrsCheckFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"reads and writes of the field", `package app

import "mds2/internal/ldap"

func f(e *ldap.Entry, es []*ldap.Entry) int {
	n := len(e.Attrs) // want
	for _, a := range es[0].Attrs { // want
		n += len(a.Values)
	}
	e.Attrs = nil // want
	return n
}
`},
		{"accessors, literals and namesakes", `package app

import "mds2/internal/ldap"

type ad struct{ Attrs map[string]string }

func f(e *ldap.Entry, a *ad) *ldap.Entry {
	n := len(e.Attributes()) + len(e.Values("hn")) + len(a.Attrs)
	if n == 0 {
		return nil
	}
	return &ldap.Entry{DN: e.DN, Attrs: e.Attributes()}
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ldap/ldap.go": ldapStub, // selects the field throughout, legally
				"internal/app/app.go":   tc.src,
			}
			checkWants(t, files, runTyped(t, AttrsCheck, files))
		})
	}
}

func TestPoolCheckFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"field store escapes frame", `package app

import "mds2/internal/ber"

type conn struct{ last *ber.Packet }

func (c *conn) read(buf []byte) error {
	p, err := ber.ReadPacketBuf(buf)
	if err != nil {
		return err
	}
	c.last = p // want
	return nil
}
`},
		{"value slice store escapes frame", `package app

import "mds2/internal/ber"

type conn struct{ dn []byte }

func (c *conn) read(buf []byte) {
	p, _ := ber.ReadPacketBuf(buf)
	c.dn = p.Value // want
}
`},
		{"channel send escapes frame", `package app

import "mds2/internal/ber"

func f(buf []byte, ch chan *ber.Packet) {
	p, _ := ber.ReadPacketBuf(buf)
	ch <- p // want
}
`},
		{"goroutine capture races reuse", `package app

import "mds2/internal/ber"

func handle(p *ber.Packet) {}

func f(buf []byte) {
	p, _ := ber.ReadPacketBuf(buf)
	go func() { // want
		handle(p)
	}()
}
`},
		{"package-level store escapes frame", `package app

import "mds2/internal/ber"

var last *ber.Packet

func f(buf []byte) {
	p, _ := ber.ReadPacketBuf(buf)
	last = p // want
}
`},
		{"helper fact propagates the frame", `package app

import "mds2/internal/ber"

type conn struct{ last *ber.Packet }

func decode(buf []byte) *ber.Packet {
	p, _ := ber.ReadPacketBuf(buf)
	return p
}

func (c *conn) read(buf []byte) {
	c.last = decode(buf) // want
}
`},
		{"read frame escapes", `package app

import "mds2/internal/ber"

type conn struct {
	last []byte
	ops  chan []byte
}

func (c *conn) read(buf []byte) {
	frame, _ := ber.ReadFrame(buf)
	op := frame[2:]
	c.ops <- op // want
	c.last = frame // want
	go func() { // want
		_ = op
	}()
}
`},
		{"read frame copied out", `package app

import "mds2/internal/ber"

type conn struct {
	last []byte
	name string
}

func (c *conn) read(buf []byte) {
	frame, _ := ber.ReadFrame(buf)
	c.last = append([]byte(nil), frame...)
	c.name = string(frame[2:])
}
`},
		{"sync.Pool value escapes", `package app

import "sync"

type holder struct{ b []byte }

var pool sync.Pool

func f(h *holder) {
	b := pool.Get().([]byte)
	h.b = b // want
}
`},
		{"clone launders the frame", `package app

import "mds2/internal/ber"

type conn struct {
	last *ber.Packet
	dn   string
}

func (c *conn) read(buf []byte) {
	p, _ := ber.ReadPacketBuf(buf)
	c.last = p.Clone()
	c.dn = p.Str()
}
`},
		{"unsafe view minting outside ber", `package app

import "unsafe"

func view(b []byte) string {
	return unsafe.String(&b[0], len(b)) // want
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ber/ber.go": berStub,
				"internal/app/app.go": tc.src,
			}
			checkWants(t, files, runTyped(t, PoolCheck, files))
		})
	}
}

func TestBerBalanceFixtures(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"early return with open element", `package app

import "mds2/internal/ber"

func enc(ok bool) []byte {
	var b ber.Builder
	b.Begin(0x30)
	if !ok {
		return nil // want
	}
	b.End()
	return b.Bytes()
}
`},
		{"fall-off with open element", `package app

import "mds2/internal/ber"

func enc() {
	var b ber.Builder
	b.Begin(0x30)
	b.Int(1)
} // want
`},
		{"loop body imbalance", `package app

import "mds2/internal/ber"

func enc(n int) {
	var b ber.Builder
	for i := 0; i < n; i++ { // want
		b.Begin(0x30)
	}
}
`},
		{"param builder inconsistent across paths", `package app

import "mds2/internal/ber"

func helper(b *ber.Builder, ok bool) {
	b.Begin(0x30)
	if !ok {
		return // want
	}
	b.End()
}
`},
		{"open helper fact reaches caller", `package app

import "mds2/internal/ber"

func begin(b *ber.Builder) { b.Begin(0x30) }

func enc() {
	var b ber.Builder
	begin(&b)
	b.Int(1)
} // want
`},
		{"balanced if else", `package app

import "mds2/internal/ber"

func enc(ok bool) {
	var b ber.Builder
	b.Begin(0x30)
	if ok {
		b.Int(1)
	} else {
		b.Int(2)
	}
	b.End()
}
`},
		{"balanced loop and switch", `package app

import "mds2/internal/ber"

func enc(vals []int64, mode int) {
	var b ber.Builder
	b.Begin(0x30)
	for _, v := range vals {
		b.BeginPrimitive(0x02)
		b.Int(v)
		b.End()
	}
	switch mode {
	case 1:
		b.Begin(0x31)
		b.End()
	default:
	}
	b.End()
}
`},
		{"reset clears depth", `package app

import "mds2/internal/ber"

func enc(bad bool) {
	var b ber.Builder
	b.Begin(0x30)
	if bad {
		b.Reset()
		return
	}
	b.End()
}
`},
		{"paired open close helper facts", `package app

import "mds2/internal/ber"

func open(b *ber.Builder)  { b.Begin(0x30) }
func close(b *ber.Builder) { b.End() }

func enc() {
	var b ber.Builder
	open(&b)
	b.Int(1)
	close(&b)
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/ber/ber.go": berStub,
				"internal/app/app.go": tc.src,
			}
			checkWants(t, files, runTyped(t, BerBalance, files))
		})
	}
}

// TestRepoCleanTyped is the whole-repo gate, mirroring the CI step: the real
// module, loaded the way cmd/mdslint loads it, must produce no finding from
// the full suite. If this fails, either fix the code or add an
// //mdslint:ignore <rule> <reason> with a real justification.
func TestRepoCleanTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("typed whole-module load is slow")
	}
	fset := token.NewFileSet()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pass, err := LoadModule(fset, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunAll(pass, Analyzers()) {
		t.Errorf("%s", f)
	}
}
