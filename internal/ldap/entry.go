package ldap

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mds2/internal/ber"
)

// Attribute is a named, multi-valued attribute binding. Names compare
// case-insensitively; values carry caseIgnoreMatch semantics.
type Attribute struct {
	Name   string
	Values []string
}

// Entry is one object in the hierarchical namespace: a distinguished name
// plus a set of typed attribute bindings (Figure 3 of the paper).
//
// An entry comes in two forms. A decoded entry keeps its bindings in Attrs.
// A wire-backed entry — every result of Client.Search, SearchWith and
// SearchFunc — keeps the BER PartialAttributeList of the frame it arrived
// in, validated but not parsed, and leaves Attrs nil: SearchResultEntry
// re-emits those bytes as they are (a relay never looks inside), and they
// are decoded only if something asks for an attribute. Read
// attributes through Attributes (or Values, First, …), never the field. A
// wire-backed entry is an immutable snapshot from birth: its bytes and the
// attributes decoded from them are shared by everyone holding it.
type Entry struct {
	DN DN
	// Attrs holds a decoded entry's attributes; nil on a wire-backed entry.
	Attrs []Attribute
	// raw is a wire-backed entry's attribute list exactly as received (the
	// SEQUENCE OF element, header included), nil on a decoded entry. Nothing
	// writes these bytes after scanner.searchEntry accepted them.
	raw []byte
	// name is the LDAPDN text the entry arrived under, kept only when it is
	// byte for byte DN.String() (see parseDN), so a relay sends it as it is
	// instead of rendering DN again; nil otherwise. Like raw it is received
	// bytes nothing writes, and only an entry whose DN is exactly the one
	// parsed from them — the entry itself, or a Project of it — has it.
	name []byte
	// decoded memoizes raw's attributes once something asked for them.
	decoded atomic.Pointer[[]Attribute]
	// form is a decoded entry's SearchResultEntry body — its LDAPDN and its
	// PartialAttributeList, as appendEntry would encode them — recorded when
	// a Store first publishes the entry, so every send of a stored snapshot
	// is a copy. nil until then, and on a wire-backed entry, which has raw.
	form atomic.Pointer[[]byte]
	// san is the snapshot seal: set when the store publishes this entry as
	// an immutable snapshot; zero-sized outside -tags mdsdebug builds.
	san entrySan
}

// NewEntry returns an entry with the given DN and no attributes.
func NewEntry(dn DN) *Entry { return &Entry{DN: dn} }

// Attributes returns the entry's attribute bindings, decoding a wire-backed
// entry's frame on first use. Concurrent first uses may each decode; one
// result is published and every caller returns that one. The slice is the
// entry's own — shared with every other holder when the entry is a snapshot.
func (e *Entry) Attributes() []Attribute {
	if e.raw == nil {
		return e.Attrs
	}
	if p := e.decoded.Load(); p != nil {
		return *p
	}
	return e.materialize()
}

func (e *Entry) materialize() []Attribute {
	e.verifySeal()
	attrs := decodeRawAttrs(e.raw)
	e.decoded.CompareAndSwap(nil, &attrs)
	return *e.decoded.Load()
}

// decodeRawAttrs decodes a PartialAttributeList element that
// scanner.searchEntry accepted, with the scanner's two passes: the first counts
// the attributes and their values, the second cuts every attribute's values
// out of one shared array. Names and values view a copy of the list made
// here, never raw: a value a caller keeps (a Clone keeps them all) holds on
// to that entry's few hundred bytes, not to the read chunk raw may alias.
func decodeRawAttrs(raw []byte) []Attribute {
	var s scanner
	list, _ := s.next(cloneBytes(raw), idSequence)
	s.attributes(list)
	s.second()
	return s.attributes(list)
}

// publish readies e to be a store's immutable snapshot: a decoded entry
// gets its wire form, and e is sealed — or, adopted from another store,
// re-verified. Stores adopting one entry at once (a producer may hand the
// same pointers to several) each get here; the form goes in by CAS, so they
// all keep the first one, and it is encoded from attributes nobody writes.
// An entry sealed without a form (a cache's snapshot) is left without one:
// its seal does not cover a form.
func (e *Entry) publish() {
	if e.raw == nil && e.form.Load() == nil && !e.sealed() {
		var scratch [512]byte
		var b ber.Builder
		b.Reset(scratch[:0])
		appendDN(&b, e.DN)
		appendAttrList(&b, e.Attrs)
		form := bytes.Clone(b.Bytes())
		e.form.CompareAndSwap(nil, &form)
	}
	e.sealOrVerify()
}

// own turns a wire-backed entry into a decoded one holding private copies
// of its attributes, which is what the mutating methods then work on. Only
// an entry nobody else holds may be mutated at all.
func (e *Entry) own() {
	if e.raw == nil {
		return
	}
	e.Attrs = cloneAttrs(e.Attributes())
	e.raw, e.name = nil, nil
	e.decoded.Store(nil)
}

func cloneAttrs(attrs []Attribute) []Attribute {
	out := make([]Attribute, len(attrs))
	for i, a := range attrs {
		out[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	return out
}

// Add appends values to the named attribute, creating it if needed.
func (e *Entry) Add(name string, values ...string) *Entry {
	e.checkMutable()
	e.own()
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			e.Attrs[i].Values = append(e.Attrs[i].Values, values...)
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attribute{Name: name, Values: append([]string(nil), values...)})
	return e
}

// Set replaces the named attribute's values.
func (e *Entry) Set(name string, values ...string) *Entry {
	e.checkMutable()
	e.own()
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			e.Attrs[i].Values = append([]string(nil), values...)
			return e
		}
	}
	return e.Add(name, values...)
}

// Delete removes the named attribute entirely; it is a no-op if absent.
func (e *Entry) Delete(name string) {
	e.checkMutable()
	e.own()
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			e.Attrs = append(e.Attrs[:i], e.Attrs[i+1:]...)
			return
		}
	}
}

// Values returns the values bound to the named attribute (nil if absent).
func (e *Entry) Values(name string) []string {
	attrs := e.Attributes()
	for i := range attrs {
		if strings.EqualFold(attrs[i].Name, name) {
			return attrs[i].Values
		}
	}
	return nil
}

// First returns the first value of the named attribute, or "".
func (e *Entry) First(name string) string {
	v := e.Values(name)
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Int returns the first value of the named attribute parsed as an integer;
// ok is false when the attribute is absent or non-numeric.
func (e *Entry) Int(name string) (int64, bool) {
	s := e.First(name)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Float returns the first value parsed as a float; ok is false on failure.
func (e *Entry) Float(name string) (float64, bool) {
	s := e.First(name)
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Has reports whether the attribute is present with at least one value.
func (e *Entry) Has(name string) bool { return len(e.Values(name)) > 0 }

// HasValue reports whether the named attribute holds value under
// caseIgnoreMatch comparison.
func (e *Entry) HasValue(name, value string) bool {
	for _, v := range e.Values(name) {
		if strings.EqualFold(v, value) {
			return true
		}
	}
	return false
}

// ObjectClasses returns the entry's objectclass values.
func (e *Entry) ObjectClasses() []string { return e.Values("objectclass") }

// IsA reports whether the entry carries the named object class.
func (e *Entry) IsA(class string) bool { return e.HasValue("objectclass", class) }

// Clone returns a deep copy of the entry, name included: writing an AVA of
// the copy's DN leaves the source alone, and the copy keeps none of the
// arrays (a connection's name slab among them) the source's DN was cut from,
// nor the read chunk a received name's strings view.
func (e *Entry) Clone() *Entry {
	return &Entry{DN: e.DN.clone(), Attrs: cloneAttrs(e.Attributes())}
}

// Select returns a copy of the entry restricted to the requested attribute
// names. An empty or nil request selects all attributes, per RFC 4511; the
// special name "*" likewise selects all. Requested names absent from the
// entry are simply omitted.
func (e *Entry) Select(requested []string) *Entry {
	if selectsAll(requested) {
		return e.Clone()
	}
	out := &Entry{DN: e.DN.clone()}
	for _, r := range requested {
		if vs := e.Values(r); vs != nil {
			out.Attrs = append(out.Attrs, Attribute{Name: r, Values: append([]string(nil), vs...)})
		}
	}
	return out
}

// Project is Select without the copy, for handing a store's immutable
// snapshot to a SearchWriter: the result shares e's DN and value slices —
// it is e itself when every attribute is selected, which is what lets a
// wire-backed entry through unparsed — so it is as read-only as e. Its name
// is e's, so it keeps e's received name bytes too. Its attribute slice is
// sized for the whole request at the first match, and stays nil if nothing
// matches.
func (e *Entry) Project(requested []string) *Entry {
	if selectsAll(requested) {
		return e
	}
	out := &Entry{DN: e.DN, name: e.name}
	for _, r := range requested {
		if vs := e.Values(r); vs != nil {
			if out.Attrs == nil {
				out.Attrs = make([]Attribute, 0, len(requested))
			}
			out.Attrs = append(out.Attrs, Attribute{Name: r, Values: vs})
		}
	}
	return out
}

func selectsAll(requested []string) bool {
	for _, r := range requested {
		if r == "*" {
			return true
		}
	}
	return len(requested) == 0
}

// WithDN returns an entry named dn that shares e's attributes — the frame
// of a wire-backed entry, the attribute slice of a decoded one — and so is
// as read-only as e. A chaining directory grafts a child's entries into its
// own view with it. The received name bytes stay behind: they name e.
func (e *Entry) WithDN(dn DN) *Entry {
	out := &Entry{DN: dn, Attrs: e.Attrs, raw: e.raw}
	if out.raw != nil {
		out.decoded.Store(e.decoded.Load())
		out.seal()
	}
	return out
}

// SortAttrs orders the entry's attributes by case-folded name, for
// deterministic serialization and golden tests.
func (e *Entry) SortAttrs() {
	e.checkMutable()
	e.own()
	sort.Slice(e.Attrs, func(i, j int) bool {
		return strings.ToLower(e.Attrs[i].Name) < strings.ToLower(e.Attrs[j].Name)
	})
}

// String renders a compact one-line description for diagnostics.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString("dn: ")
	b.WriteString(e.DN.String())
	for _, a := range e.Attributes() {
		for _, v := range a.Values {
			b.WriteString("; ")
			b.WriteString(a.Name)
			b.WriteString("=")
			b.WriteString(v)
		}
	}
	return b.String()
}

// SortEntries orders entries by normalized DN, parents before children,
// giving deterministic search-result ordering. Comparison keys are rendered
// once per entry, back to back into one buffer: a chained result set is
// sorted at every hop it crosses. The keys and the keyed slice are scratch
// reused across calls, and entries already in order (a GRIS reply, a
// child's already-sorted hop) are left as they are: a sort that finds
// nothing to do allocates nothing.
func SortEntries(entries []*Entry) {
	if len(entries) < 2 {
		return
	}
	sc := sortScratchPool.Get().(*sortScratch)
	ks, keys := sc.ks[:0], sc.keys[:0]
	for _, e := range entries {
		lo := len(keys)
		keys = e.DN.AppendNormalized(keys)
		ks = append(ks, sortKey{depth: len(e.DN), lo: lo, hi: len(keys), e: e})
	}
	cmp := func(a, b sortKey) int {
		if a.depth != b.depth {
			return a.depth - b.depth
		}
		return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi])
	}
	if !slices.IsSortedFunc(ks, cmp) {
		slices.SortFunc(ks, cmp)
		for i := range ks {
			entries[i] = ks[i].e
		}
	}
	clear(ks) // the scratch keeps no entry alive
	sc.ks, sc.keys = ks[:0], keys[:0]
	sortScratchPool.Put(sc)
}

// sortKey is one entry's place in a SortEntries call: its depth, and its
// Normalize key as a span of the call's key buffer.
type sortKey struct {
	depth  int
	lo, hi int
	e      *Entry
}

// sortScratch is the storage SortEntries reuses across calls.
type sortScratch struct {
	ks   []sortKey
	keys []byte
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// CompactSnapshots gives the wire-backed entries among entries bytes of
// their own: each is replaced in the slice by a copy whose name bytes, name
// text (every attribute and value of its DN) and frame sit in one buffer
// sized for the lot, and whose DN is cut from one RDN array and one AVA
// array for the lot, so a cache that keeps the result keeps the result —
// not every read chunk a frame or a name of it happened to arrive in, nor
// the connection's name slabs. Decoded entries stay as they are. The caller
// must own the slice.
func CompactSnapshots(entries []*Entry) {
	n, size, rdns, avas := 0, 0, 0, 0
	for _, e := range entries {
		if e.raw == nil {
			continue
		}
		n++
		size += len(e.name) + len(e.raw) + e.DN.textLen()
		rdns += len(e.DN)
		for _, rdn := range e.DN {
			avas += len(rdn)
		}
	}
	if n == 0 {
		return
	}
	buf := make([]byte, 0, size)
	own := make([]Entry, n)
	names := dnSlab{rdns: make([]RDN, rdns), avas: make([]AVA, avas)}
	keep := func(b []byte) []byte {
		lo := len(buf)
		buf = append(buf, b...)
		return buf[lo:len(buf):len(buf)]
	}
	for i, e := range entries {
		if e.raw == nil {
			continue
		}
		c := &own[0]
		own = own[1:]
		c.DN, buf = e.DN.copyInto(&names, buf)
		c.raw = keep(e.raw)
		if e.name != nil {
			c.name = keep(e.name)
		}
		c.seal()
		entries[i] = c
	}
}
