// Package ldap implements the LDAP data model, query language, and wire
// protocol subset that the MDS-2 architecture adopts for GRIP (the Grid
// Information Protocol) and as the MDS-2.1 transport for GRRP.
//
// The data model follows Figure 3 of the paper: entities are described by
// objects organized in a hierarchical namespace of distinguished names, each
// object tagged with one or more named types (object classes) and holding
// typed attribute-value bindings. Filters implement RFC 4515 semantics, and
// messages follow the RFC 4511 BER layout so that the same bytes flow whether
// a deployment runs over real TCP or the in-process simulated network.
//
// All attribute names are case-insensitive, and values compare with
// caseIgnoreMatch semantics, matching the schema style used by MDS.
package ldap

import (
	"errors"
	"fmt"
	"strings"

	"mds2/internal/ber"
)

// AVA is a single attribute-value assertion within an RDN, e.g. hn=hostX.
type AVA struct {
	Attr  string
	Value string
}

// RDN is a relative distinguished name: one or more AVAs (multi-valued RDNs
// use '+' in the string form).
type RDN []AVA

// DN is a distinguished name, leaf RDN first, as in "hn=hostX, o=grid"
// naming hostX under organization grid.
type DN []RDN

// ErrBadDN reports a malformed distinguished-name string.
var ErrBadDN = errors.New("ldap: malformed DN")

// ParseDN parses a string form distinguished name. It accepts the relaxed
// grammar MDS tooling uses: components separated by ',', multi-valued RDNs
// joined by '+', backslash escapes for the special characters ',', '+', '=',
// and '\', and insignificant whitespace around separators.
func ParseDN(s string) (DN, error) {
	dn, _, err := parseDN(s, nil)
	return dn, err
}

// parseDN is ParseDN with the name's arrays cut from slab (made for this
// name alone when slab is nil). canonical reports that s is byte for byte
// dn.String(), so a relay may send s instead of rendering dn, by rules the
// counting pass checks on the way: no whitespace at either end or beside '='
// and '+', exactly ", " between RDNs, one '=' per AVA, nothing else the
// rendering escapes (';', '"', '<', '>', a leading '#') and no escape. An
// escape defeats the byte rules (an escaped space may sit beside a
// separator): a name with one reports false even when it is canonical.
func parseDN(s string, slab *dnSlab) (dn DN, canonical bool, err error) {
	trimmed := trimDNSpace(s)
	canonical = len(trimmed) == len(s)
	if s = trimmed; s == "" {
		return DN{}, canonical, nil
	}
	// One counting pass sizes the DN and the single AVA array its RDNs are
	// cut from: every entry crossing a directory has its name parsed, and a
	// four-component name used to cost a dozen small allocations.
	rdns, avas, eqs := 1, 1, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			canonical = false
			i++ // skip escaped char
		case ',':
			rdns++
			avas++
			canonical = canonical && i+1 < len(s) && s[i+1] == ' ' && tight(s, i-1, i+2)
		case '+':
			avas++
			canonical = canonical && tight(s, i-1, i+1)
		case '=':
			eqs++
			canonical = canonical && tight(s, i-1, i+1)
		case ';', '"', '<', '>':
			canonical = false // escaped on the way out
		case '#': // escaped at the start of a name or value
			canonical = canonical && i > 0 && s[i-1] != '=' && s[i-1] != '+' && (i < 2 || s[i-2:i] != ", ")
		}
	}
	canonical = canonical && eqs == avas
	dn, all := slab.cut(rdns, avas)
	if canonical {
		if cut, ok := cutCanonical(s, dn, all); ok {
			return cut, true, nil
		}
	}
	for rest, more := s, true; more; {
		var comp string
		comp, rest, more = cutUnescaped(rest, ',')
		comp = trimDNSpace(comp)
		if comp == "" {
			return nil, false, fmt.Errorf("%w: empty RDN in %q", ErrBadDN, s)
		}
		first := len(all)
		for r, more := comp, true; more; {
			var avaStr string
			avaStr, r, more = cutUnescaped(r, '+')
			avaStr = trimDNSpace(avaStr)
			eq := indexUnescaped(avaStr, '=')
			if eq <= 0 {
				return nil, false, fmt.Errorf("%w: %q lacks '='", ErrBadDN, avaStr)
			}
			attr := trimDNSpace(avaStr[:eq])
			val := trimDNSpace(avaStr[eq+1:])
			if attr == "" || val == "" {
				return nil, false, fmt.Errorf("%w: empty attribute or value in %q", ErrBadDN, avaStr)
			}
			all = append(all, AVA{Attr: unescape(attr), Value: unescape(val)})
		}
		// Capacity stops at the RDN's own end, so appending to one RDN never
		// writes into its neighbour.
		dn = append(dn, RDN(all[first:len(all):len(all)]))
	}
	return dn, canonical, nil
}

// cutCanonical is parseDN's one pass over a name the counting pass proved
// canonical. With no escape, no whitespace beside a separator and ", "
// between RDNs, every ',' and '+' separates and the first '=' of an AVA
// splits it, and nothing needs trimming or unescaping: the AVAs are cut
// where the separators lie, into dn and all (empty, with room for the
// name). ok is false for a name that is not valid after all (an empty
// attribute or value, an AVA without '='); the general parse reports it.
func cutCanonical(s string, dn DN, all []AVA) (_ DN, ok bool) {
	first, start, eq := 0, 0, -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ',' && s[i] != '+' {
			if s[i] == '=' && eq < 0 {
				eq = i
			}
			continue
		}
		if eq <= start || eq == i-1 {
			return nil, false
		}
		all = append(all, AVA{Attr: s[start:eq], Value: s[eq+1 : i]})
		start, eq = i+1, -1
		if i == len(s) || s[i] == ',' {
			dn = append(dn, RDN(all[first:len(all):len(all)]))
			first = len(all)
			start++ // the space of ", "
		}
	}
	return dn, true
}

// tight reports that s has a byte at before and at after, and that neither
// is DN whitespace.
func tight(s string, before, after int) bool {
	return before >= 0 && after < len(s) && !isDNSpace(s[before]) && !isDNSpace(s[after])
}

// dnSlab hands out the arrays parsed or copied names are cut from, so a
// connection's result names share a few arrays instead of costing two
// allocations each. A nil *dnSlab makes each name arrays of its own.
type dnSlab struct {
	rdns []RDN
	avas []AVA
	// fixed: the arrays are all the slab has, as a scanned request's inline
	// ones are, and a name they cannot hold gets arrays of its own.
	fixed bool
}

// dnSlabLen is the RDN and AVA count of one slab: room for a few dozen
// typical result names.
const dnSlabLen = 128

// cut returns an empty DN with room for rdns RDNs and an empty AVA array
// with room for avas AVAs. Both capacities are exact, so appending to one
// name never writes into its neighbour.
func (s *dnSlab) cut(rdns, avas int) (DN, []AVA) {
	if s == nil || s.fixed && (len(s.rdns) < rdns || len(s.avas) < avas) {
		return make(DN, 0, rdns), make([]AVA, 0, avas)
	}
	if len(s.rdns) < rdns {
		s.rdns = make([]RDN, max(rdns, dnSlabLen))
	}
	if len(s.avas) < avas {
		s.avas = make([]AVA, max(avas, dnSlabLen))
	}
	dn, all := DN(s.rdns[:0:rdns]), s.avas[:0:avas]
	s.rdns, s.avas = s.rdns[rdns:], s.avas[avas:]
	return dn, all
}

// copyInto returns a deep copy of d that shares nothing with it: the RDN
// and AVA arrays are cut from slab (nil: arrays of its own), and every
// attribute and value is appended to text, which has room for d.textLen()
// more bytes, and views it there. It returns the copy and text extended.
func (d DN) copyInto(slab *dnSlab, text []byte) (DN, []byte) {
	if len(d) == 0 {
		return d[:0:0], text
	}
	n := 0
	for _, rdn := range d {
		n += len(rdn)
	}
	dn, all := slab.cut(len(d), n)
	for _, rdn := range d {
		first := len(all)
		for _, ava := range rdn {
			var a AVA
			a.Attr, text = appendView(text, ava.Attr)
			a.Value, text = appendView(text, ava.Value)
			all = append(all, a)
		}
		dn = append(dn, RDN(all[first:len(all):len(all)]))
	}
	return dn, text
}

// clone is copyInto with arrays and text of the name's own: three
// allocations, and the copy keeps nothing d kept alive.
func (d DN) clone() DN {
	dn, _ := d.copyInto(nil, make([]byte, 0, d.textLen()))
	return dn
}

// textLen is the byte length of d's attributes and values together.
func (d DN) textLen() int {
	n := 0
	for _, rdn := range d {
		for _, ava := range rdn {
			n += len(ava.Attr) + len(ava.Value)
		}
	}
	return n
}

// appendView appends s to buf and returns the appended bytes as a string
// viewing them. Nothing writes them again: buf only ever grows past them.
func appendView(buf []byte, s string) (string, []byte) {
	lo := len(buf)
	buf = append(buf, s...)
	return ber.View(buf[lo:]), buf
}

// MustParseDN parses s and panics on error; for tests and static tables.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

// isDNSpace reports the bytes treated as insignificant whitespace around DN
// separators. Kept ASCII so backslash escapes stay byte-oriented.
func isDNSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// trimDNSpace strips insignificant whitespace from both ends, leaving
// escaped whitespace (e.g. "cn=a\ ") intact: an escaped boundary space is
// part of the value, and a naive TrimSpace would strand its backslash.
func trimDNSpace(s string) string {
	for s != "" && isDNSpace(s[0]) {
		s = s[1:]
	}
	// A string that ends in a non-space keeps its end whatever precedes it,
	// so the common case never looks inside; only a trailing space needs the
	// scan that tells whether it is escaped.
	if s == "" || !isDNSpace(s[len(s)-1]) {
		return s
	}
	end := 0 // bytes to keep
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			end = i + 1
			continue
		}
		if !isDNSpace(s[i]) {
			end = i + 1
		}
	}
	return s[:end]
}

// cutUnescaped slices s around the first unescaped sep: the text before
// it, the text after it, and whether sep occurred at all.
func cutUnescaped(s string, sep byte) (before, after string, found bool) {
	if i := indexUnescaped(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

func indexUnescaped(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case c:
			return i
		}
	}
	return -1
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// dnSpecial reports the characters a value escapes wherever they stand (RFC
// 4514 §2.4, and '='); a leading '#' (a BER value) is escaped too.
func dnSpecial(c byte) bool { return strings.IndexByte(`,+=\;"<>`, c) >= 0 }

func escapeDNValue(s string) string {
	if s == "" {
		return s
	}
	special := isDNSpace(s[0]) || isDNSpace(s[len(s)-1]) || s[0] == '#'
	for i := 0; i < len(s) && !special; i++ {
		special = dnSpecial(s[i])
	}
	if !special {
		return s
	}
	// Boundary whitespace must be escaped or the parser's trim would eat
	// it (and strand a backslash) on the way back in.
	lead := 0
	for lead < len(s) && isDNSpace(s[lead]) {
		lead++
	}
	trail := len(s)
	for trail > lead && isDNSpace(s[trail-1]) {
		trail--
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case dnSpecial(s[i]) || i == 0 && s[i] == '#':
			b.WriteByte('\\')
		case isDNSpace(s[i]) && (i < lead || i >= trail):
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// String renders the DN in its canonical string form, leaf-first with
// ", " separators, matching the notation used throughout the paper
// (e.g. "queue=default, hn=hostX").
func (d DN) String() string {
	var b strings.Builder
	for i, rdn := range d {
		if i > 0 {
			b.WriteString(", ")
		}
		for j, ava := range rdn {
			if j > 0 {
				b.WriteByte('+')
			}
			b.WriteString(escapeDNValue(ava.Attr))
			b.WriteByte('=')
			b.WriteString(escapeDNValue(ava.Value))
		}
	}
	return b.String()
}

// Normalize returns the case-folded, whitespace-canonical comparison key of
// the DN. Two DNs name the same entry iff their Normalize outputs are equal.
func (d DN) Normalize() string {
	var buf [96]byte
	return string(d.AppendNormalized(buf[:0]))
}

// AppendNormalized appends d's Normalize key to dst, so a caller can key
// a lookup by it from a buffer of its own without building the string.
func (d DN) AppendNormalized(dst []byte) []byte {
	for i, rdn := range d {
		if i > 0 {
			dst = append(dst, ',')
		}
		for j, ava := range rdn {
			if j > 0 {
				dst = append(dst, '+')
			}
			dst = appendLower(dst, escapeDNValue(ava.Attr))
			dst = append(dst, '=')
			dst = appendLower(dst, escapeDNValue(ava.Value))
		}
	}
	return dst
}

// appendLower appends strings.ToLower(s) to dst, without the intermediate
// string when s is ASCII.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// Equal reports whether d and o name the same entry. Normalize is the
// definition — Equal(o) == (d.Normalize() == o.Normalize()) on every input —
// but the comparison runs component-wise without building either key: scope
// checks run once per candidate entry per query.
func (d DN) Equal(o DN) bool {
	if len(d) != len(o) {
		// DNs of different depth share a key only when it is "": the root
		// DN and a lone AVA-less RDN (which no parser produces).
		return d.hasEmptyKey() && o.hasEmptyKey()
	}
	return equalRDNs(d, o)
}

func (d DN) hasEmptyKey() bool { return len(d) == 0 || len(d) == 1 && len(d[0]) == 0 }

// equalRDNs compares two equally long RDN sequences the way their
// Normalize keys compare. Escaping is injective and never touches letters,
// and every separator inside a component is escaped, so the joined keys are
// equal exactly when every attribute and value is equal under lowering.
func equalRDNs(a, b DN) bool {
	for i, ra := range a {
		rb := b[i]
		if len(ra) != len(rb) {
			return false
		}
		for j, ava := range ra {
			if !lowerEqual(ava.Attr, rb[j].Attr) || !lowerEqual(ava.Value, rb[j].Value) {
				return false
			}
		}
	}
	return true
}

// IsZero reports whether d is the empty (root) DN.
func (d DN) IsZero() bool { return len(d) == 0 }

// Depth returns the number of RDN components.
func (d DN) Depth() int { return len(d) }

// Parent returns the DN with the leaf RDN removed; the parent of a
// single-component DN is the root (empty) DN.
func (d DN) Parent() DN {
	if len(d) == 0 {
		return DN{}
	}
	return d[1:]
}

// Leaf returns the leftmost (leaf) RDN, or nil for the root DN.
func (d DN) Leaf() RDN {
	if len(d) == 0 {
		return nil
	}
	return d[0]
}

// Child returns the DN naming a child of d with the given leaf RDN.
func (d DN) Child(rdn RDN) DN {
	child := make(DN, 0, len(d)+1)
	child = append(child, rdn)
	return append(child, d...)
}

// ChildAVA is shorthand for Child with a single-AVA RDN.
func (d DN) ChildAVA(attr, value string) DN {
	return d.Child(RDN{{Attr: attr, Value: value}})
}

// IsDescendantOf reports whether d is strictly below ancestor in the tree.
// Every non-root DN is a descendant of the root DN.
func (d DN) IsDescendantOf(ancestor DN) bool {
	if len(d) <= len(ancestor) {
		return false
	}
	return equalRDNs(d[len(d)-len(ancestor):], ancestor)
}

// WithinScope reports whether d falls inside a search with the given base
// and scope.
func (d DN) WithinScope(base DN, scope Scope) bool {
	switch scope {
	case ScopeBaseObject:
		return d.Equal(base)
	case ScopeSingleLevel:
		return len(d) == len(base)+1 && d.IsDescendantOf(base)
	case ScopeWholeSubtree:
		return d.Equal(base) || d.IsDescendantOf(base)
	}
	return false
}

// RelativeTo returns the RDN components of d below ancestor, leaf first.
// It returns ok=false when d is not a descendant of (or equal to) ancestor.
func (d DN) RelativeTo(ancestor DN) (DN, bool) {
	if d.Equal(ancestor) {
		return DN{}, true
	}
	if !d.IsDescendantOf(ancestor) {
		return nil, false
	}
	rel := make(DN, len(d)-len(ancestor))
	copy(rel, d[:len(d)-len(ancestor)])
	return rel, true
}

// Under grafts the (relative) DN d beneath the new ancestor.
func (d DN) Under(ancestor DN) DN {
	out := make(DN, 0, len(d)+len(ancestor))
	out = append(out, d...)
	return append(out, ancestor...)
}
