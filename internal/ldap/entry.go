package ldap

import (
	"sort"
	"strconv"
	"strings"
)

// Attribute is a named, multi-valued attribute binding. Names compare
// case-insensitively; values carry caseIgnoreMatch semantics.
type Attribute struct {
	Name   string
	Values []string
}

// Entry is one object in the hierarchical namespace: a distinguished name
// plus a set of typed attribute bindings (Figure 3 of the paper).
type Entry struct {
	DN    DN
	Attrs []Attribute
	// san is the snapshot seal: set when the store publishes this entry as
	// an immutable snapshot; zero-sized outside -tags mdsdebug builds.
	san entrySan
}

// NewEntry returns an entry with the given DN and no attributes.
func NewEntry(dn DN) *Entry { return &Entry{DN: dn} }

// Add appends values to the named attribute, creating it if needed.
func (e *Entry) Add(name string, values ...string) *Entry {
	e.checkMutable()
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
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			e.Attrs = append(e.Attrs[:i], e.Attrs[i+1:]...)
			return
		}
	}
}

// Values returns the values bound to the named attribute (nil if absent).
func (e *Entry) Values(name string) []string {
	for i := range e.Attrs {
		if strings.EqualFold(e.Attrs[i].Name, name) {
			return e.Attrs[i].Values
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

// Clone returns a deep copy of the entry.
func (e *Entry) Clone() *Entry {
	out := &Entry{DN: append(DN(nil), e.DN...), Attrs: make([]Attribute, len(e.Attrs))}
	for i, a := range e.Attrs {
		out.Attrs[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	return out
}

// Select returns a copy of the entry restricted to the requested attribute
// names. An empty or nil request selects all attributes, per RFC 4511; the
// special name "*" likewise selects all. Requested names absent from the
// entry are simply omitted.
func (e *Entry) Select(requested []string) *Entry {
	if selectsAll(requested) {
		return e.Clone()
	}
	out := &Entry{DN: append(DN(nil), e.DN...)}
	for _, r := range requested {
		if vs := e.Values(r); vs != nil {
			out.Attrs = append(out.Attrs, Attribute{Name: r, Values: append([]string(nil), vs...)})
		}
	}
	return out
}

// Project is Select without the copy, for handing a store's immutable
// snapshot to a SearchWriter: the result shares e's DN and value slices —
// it is e itself when every attribute is selected — so it is as read-only
// as e.
func (e *Entry) Project(requested []string) *Entry {
	if selectsAll(requested) {
		return e
	}
	out := &Entry{DN: e.DN}
	for _, r := range requested {
		if vs := e.Values(r); vs != nil {
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

// SortAttrs orders the entry's attributes by case-folded name, for
// deterministic serialization and golden tests.
func (e *Entry) SortAttrs() {
	e.checkMutable()
	sort.Slice(e.Attrs, func(i, j int) bool {
		return strings.ToLower(e.Attrs[i].Name) < strings.ToLower(e.Attrs[j].Name)
	})
}

// String renders a compact one-line description for diagnostics.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString("dn: ")
	b.WriteString(e.DN.String())
	for _, a := range e.Attrs {
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
// giving deterministic search-result ordering. Comparison keys are computed
// once per entry: Normalize allocates, and result sets can be large.
func SortEntries(entries []*Entry) {
	if len(entries) < 2 {
		return
	}
	type keyed struct {
		depth int
		key   string
		e     *Entry
	}
	ks := make([]keyed, len(entries))
	for i, e := range entries {
		ks[i] = keyed{depth: len(e.DN), key: e.DN.Normalize(), e: e}
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].depth != ks[j].depth {
			return ks[i].depth < ks[j].depth
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		entries[i] = ks[i].e
	}
}
