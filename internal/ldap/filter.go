package ldap

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// FilterKind enumerates the RFC 4511 filter choices this implementation
// supports. The numeric values are the context tags used on the wire.
type FilterKind uint32

// Filter kinds, numbered as on the wire (RFC 4511 §4.5.1.7).
const (
	FilterAnd        FilterKind = 0
	FilterOr         FilterKind = 1
	FilterNot        FilterKind = 2
	FilterEquality   FilterKind = 3
	FilterSubstrings FilterKind = 4
	FilterGE         FilterKind = 5
	FilterLE         FilterKind = 6
	FilterPresent    FilterKind = 7
	FilterApprox     FilterKind = 8
)

// Filter is a parsed search filter. Exactly the fields relevant to Kind are
// populated: Subs for And/Or (and Subs[0] for Not), Attr for all item kinds,
// Value for Equality/GE/LE/Approx, and the substring parts for Substrings.
type Filter struct {
	Kind  FilterKind
	Subs  []*Filter // And, Or: 1..n; Not: exactly 1
	Attr  string
	Value string
	// Substring components: Initial and Final are optional, Any may hold
	// zero or more middle fragments. At least one component is present.
	Initial string
	Any     []string
	Final   string
}

// ErrBadFilter reports a filter string that does not satisfy RFC 4515.
var ErrBadFilter = errors.New("ldap: malformed filter")

// Convenience constructors used pervasively by providers and directories.

// Eq returns an equality filter (attr=value).
func Eq(attr, value string) *Filter {
	return &Filter{Kind: FilterEquality, Attr: attr, Value: value}
}

// Present returns a presence filter (attr=*).
func Present(attr string) *Filter { return &Filter{Kind: FilterPresent, Attr: attr} }

// And returns the conjunction of subfilters.
func And(subs ...*Filter) *Filter { return &Filter{Kind: FilterAnd, Subs: subs} }

// Or returns the disjunction of subfilters.
func Or(subs ...*Filter) *Filter { return &Filter{Kind: FilterOr, Subs: subs} }

// Not returns the negation of sub.
func Not(sub *Filter) *Filter { return &Filter{Kind: FilterNot, Subs: []*Filter{sub}} }

// GE returns a greater-or-equal filter (attr>=value).
func GE(attr, value string) *Filter { return &Filter{Kind: FilterGE, Attr: attr, Value: value} }

// LE returns a less-or-equal filter (attr<=value).
func LE(attr, value string) *Filter { return &Filter{Kind: FilterLE, Attr: attr, Value: value} }

// ParseFilter parses an RFC 4515 string filter such as
// "(&(objectclass=computer)(freecpus>=8))". As a convenience an unwrapped
// simple item like "cn=foo" is also accepted.
func ParseFilter(s string) (*Filter, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("%w: empty", ErrBadFilter)
	}
	if !strings.HasPrefix(s, "(") {
		s = "(" + s + ")"
	}
	p := &filterParser{in: s}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing %q", ErrBadFilter, p.in[p.pos:])
	}
	return f, nil
}

// MustParseFilter parses s and panics on error; for tests and static config.
func MustParseFilter(s string) *Filter {
	f, err := ParseFilter(s)
	if err != nil {
		panic(err)
	}
	return f
}

type filterParser struct {
	in  string
	pos int
}

func (p *filterParser) parse() (*Filter, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("%w: unexpected end", ErrBadFilter)
	}
	var f *Filter
	var err error
	switch p.in[p.pos] {
	case '&':
		p.pos++
		f, err = p.parseList(FilterAnd)
	case '|':
		p.pos++
		f, err = p.parseList(FilterOr)
	case '!':
		p.pos++
		var sub *Filter
		sub, err = p.parse()
		if err == nil {
			f = Not(sub)
		}
	default:
		f, err = p.parseItem()
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *filterParser) parseList(kind FilterKind) (*Filter, error) {
	f := &Filter{Kind: kind}
	for p.pos < len(p.in) && p.in[p.pos] == '(' {
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		f.Subs = append(f.Subs, sub)
	}
	if len(f.Subs) == 0 {
		return nil, fmt.Errorf("%w: empty %v list", ErrBadFilter, kind)
	}
	return f, nil
}

func (p *filterParser) parseItem() (*Filter, error) {
	// attr [~ | > | <] = value
	start := p.pos
	for p.pos < len(p.in) && !strings.ContainsRune("=~<>()", rune(p.in[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.in[start:p.pos])
	if attr == "" || p.pos >= len(p.in) {
		return nil, fmt.Errorf("%w: bad item at %d", ErrBadFilter, start)
	}
	kind := FilterEquality
	switch p.in[p.pos] {
	case '~':
		kind = FilterApprox
		p.pos++
	case '>':
		kind = FilterGE
		p.pos++
	case '<':
		kind = FilterLE
		p.pos++
	}
	if err := p.expect('='); err != nil {
		return nil, err
	}
	vstart := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != ')' {
		if p.in[p.pos] == '\\' {
			if p.pos+1 >= len(p.in) {
				return nil, fmt.Errorf("%w: dangling escape at %d", ErrBadFilter, p.pos)
			}
			p.pos++
		}
		p.pos++
	}
	raw := p.in[vstart:p.pos]
	if kind != FilterEquality {
		return &Filter{Kind: kind, Attr: attr, Value: unescapeFilterValue(raw)}, nil
	}
	// Equality with '*' in the value is presence or substrings.
	if raw == "*" {
		return Present(attr), nil
	}
	if containsUnescapedStar(raw) {
		return parseSubstrings(attr, raw)
	}
	return Eq(attr, unescapeFilterValue(raw)), nil
}

func (p *filterParser) expect(c byte) error {
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return fmt.Errorf("%w: expected %q at offset %d", ErrBadFilter, string(c), p.pos)
	}
	p.pos++
	return nil
}

func containsUnescapedStar(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '*':
			return true
		}
	}
	return false
}

func parseSubstrings(attr, raw string) (*Filter, error) {
	var parts []string
	var cur strings.Builder
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch c {
		case '\\':
			if i+1 < len(raw) {
				i++
				cur.WriteByte(raw[i])
			}
		case '*':
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	parts = append(parts, cur.String())
	// parts = initial, any..., final; stars are the separators.
	f := &Filter{Kind: FilterSubstrings, Attr: attr, Initial: parts[0], Final: parts[len(parts)-1]}
	for _, mid := range parts[1 : len(parts)-1] {
		if mid != "" {
			f.Any = append(f.Any, mid)
		}
	}
	if f.Initial == "" && f.Final == "" && len(f.Any) == 0 {
		return nil, fmt.Errorf("%w: substring filter with no components", ErrBadFilter)
	}
	return f, nil
}

func unescapeFilterValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			// RFC 4515 uses \XX hex escapes; accept those too.
			if i+1 < len(v) && isHex(v[i]) && isHex(v[i+1]) {
				n, err := strconv.ParseUint(v[i:i+2], 16, 8)
				if err == nil {
					b.WriteByte(byte(n))
					i++
					continue
				}
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// appendFilterValue appends v with the bytes RFC 4515 reserves escaped.
func appendFilterValue(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '*', '(', ')', '\\':
			dst = append(dst, '\\')
		}
		dst = append(dst, v[i])
	}
	return dst
}

// String renders the filter back in RFC 4515 notation.
func (f *Filter) String() string {
	var buf [128]byte
	return string(f.AppendString(buf[:0]))
}

// AppendString appends String's rendering of the filter to dst, in one pass
// and without a string of its own: a query-cache key renders the filter of
// every chained hop.
func (f *Filter) AppendString(dst []byte) []byte {
	dst = append(dst, '(')
	switch f.Kind {
	case FilterAnd, FilterOr:
		if f.Kind == FilterAnd {
			dst = append(dst, '&')
		} else {
			dst = append(dst, '|')
		}
		for _, sub := range f.Subs {
			dst = sub.AppendString(dst)
		}
	case FilterNot:
		dst = append(dst, '!')
		dst = f.Subs[0].AppendString(dst)
	case FilterEquality:
		dst = appendFilterValue(append(append(dst, f.Attr...), '='), f.Value)
	case FilterApprox:
		dst = appendFilterValue(append(append(dst, f.Attr...), "~="...), f.Value)
	case FilterGE:
		dst = appendFilterValue(append(append(dst, f.Attr...), ">="...), f.Value)
	case FilterLE:
		dst = appendFilterValue(append(append(dst, f.Attr...), "<="...), f.Value)
	case FilterPresent:
		dst = append(append(dst, f.Attr...), "=*"...)
	case FilterSubstrings:
		dst = append(appendFilterValue(append(append(dst, f.Attr...), '='), f.Initial), '*')
		for _, a := range f.Any {
			dst = append(appendFilterValue(dst, a), '*')
		}
		dst = appendFilterValue(dst, f.Final)
	}
	return append(dst, ')')
}

// Matches evaluates the filter against an entry. Ordering comparisons
// (>=, <=) compare numerically when both sides parse as numbers and fall
// back to case-folded string order otherwise, which is how MDS providers
// publish load averages and capacities as strings.
func (f *Filter) Matches(e *Entry) bool {
	switch f.Kind {
	case FilterAnd:
		for _, sub := range f.Subs {
			if !sub.Matches(e) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, sub := range f.Subs {
			if sub.Matches(e) {
				return true
			}
		}
		return false
	case FilterNot:
		return !f.Subs[0].Matches(e)
	case FilterPresent:
		return e.Has(f.Attr)
	case FilterEquality:
		return e.HasValue(f.Attr, f.Value)
	case FilterApprox:
		// Approximate match: case-insensitive equality ignoring interior
		// whitespace — a deliberately simple stand-in for soundex-style
		// matching that is deterministic for tests.
		for _, v := range e.Values(f.Attr) {
			if squashFoldEqual(v, f.Value) {
				return true
			}
		}
		return false
	case FilterGE:
		for _, v := range e.Values(f.Attr) {
			if orderCompare(v, f.Value) >= 0 {
				return true
			}
		}
		return false
	case FilterLE:
		for _, v := range e.Values(f.Attr) {
			if orderCompare(v, f.Value) <= 0 {
				return true
			}
		}
		return false
	case FilterSubstrings:
		for _, v := range e.Values(f.Attr) {
			if f.matchSubstring(v) {
				return true
			}
		}
		return false
	}
	return false
}

func (f *Filter) matchSubstring(v string) bool {
	return matchSubstringFold(v, f.Initial, f.Any, f.Final)
}

// matchSubstringFold anchors initial at the start, locates each middle
// fragment left to right, and anchors final at the end, all under
// allocation-free case folding. It is the single substring-match
// implementation shared by compiled and uncompiled evaluation.
func matchSubstringFold(v, initial string, any []string, final string) bool {
	if initial != "" {
		n := foldConsume(v, initial)
		if n < 0 {
			return false
		}
		v = v[n:]
	}
	for _, a := range any {
		n := foldSkipPast(v, a)
		if n < 0 {
			return false
		}
		v = v[n:]
	}
	if final != "" {
		return foldHasSuffix(v, final)
	}
	return true
}

func orderCompare(a, b string) int {
	if looksNumeric(a) && looksNumeric(b) {
		fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
		fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
		if errA == nil && errB == nil {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
	}
	return foldCompare(a, b)
}

// Attributes returns the set of attribute names the filter references, used
// by GRIS to prune dispatch to providers whose namespace cannot intersect
// the query.
func (f *Filter) Attributes() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(*Filter)
	walk = func(g *Filter) {
		switch g.Kind {
		case FilterAnd, FilterOr, FilterNot:
			for _, sub := range g.Subs {
				walk(sub)
			}
		default:
			key := strings.ToLower(g.Attr)
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
	}
	walk(f)
	return out
}
