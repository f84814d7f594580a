// Package matchmake implements a classad-style matchmaking engine in the
// spirit of the Condor Matchmaker the paper cites as an alternative
// directory query mechanism (§5.3: "we can construct directories that
// employ the Condor matchmaking algorithm as a query evaluation
// mechanism"). Requests and resources are both described by attribute
// lists ("ads") carrying Requirements and Rank expressions that may
// reference the other party's attributes — expressing the join-like
// queries ("an idle computer connected to an idle network") that the
// basic GRIP filter language deliberately omits (§4.2).
package matchmake

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mds2/internal/ldap"
)

// Value is a classad value: string, float64, bool, or Undefined.
type Value any

// Undefined is the classad undefined value, produced by references to
// missing attributes. Comparisons against it yield Undefined; a
// Requirements expression evaluating to Undefined does not match.
type Undefined struct{}

// Ad is one advertisement: typed attributes plus the matching expressions.
type Ad struct {
	Attrs map[string]Value
	// Requirements must evaluate true against a candidate for this side
	// to accept the match; empty means "accept anything".
	Requirements string
	// Rank orders acceptable candidates (higher preferred); empty ranks
	// all candidates equally.
	Rank string
}

// NewAd returns an empty ad.
func NewAd() *Ad { return &Ad{Attrs: map[string]Value{}} }

// Set binds an attribute, coercing Go numerics to float64.
func (a *Ad) Set(name string, v Value) *Ad {
	switch n := v.(type) {
	case int:
		v = float64(n)
	case int64:
		v = float64(n)
	case float32:
		v = float64(n)
	}
	a.Attrs[strings.ToLower(name)] = v
	return a
}

// Get returns the named attribute or Undefined.
func (a *Ad) Get(name string) Value {
	if a == nil {
		return Undefined{}
	}
	if v, ok := a.Attrs[strings.ToLower(name)]; ok {
		return v
	}
	return Undefined{}
}

// FromEntry converts an LDAP entry into an ad: numeric-looking values
// become numbers, "true"/"false" become booleans, everything else strings.
// Multi-valued attributes keep their first value (ads are scalar); the
// entry's object classes are preserved as a space-joined string.
func FromEntry(e *ldap.Entry) *Ad {
	ad := NewAd()
	ad.Set("dn", e.DN.String())
	for _, attr := range e.Attributes() {
		if len(attr.Values) == 0 {
			continue
		}
		if strings.EqualFold(attr.Name, "objectclass") {
			ad.Set("objectclass", strings.ToLower(strings.Join(attr.Values, " ")))
			continue
		}
		ad.Set(attr.Name, coerce(attr.Values[0]))
	}
	return ad
}

func coerce(s string) Value {
	t := strings.TrimSpace(s)
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return f
	}
	switch strings.ToLower(t) {
	case "true":
		return true
	case "false":
		return false
	}
	return s
}

// Match reports whether both ads' Requirements accept each other — the
// symmetric Condor matching rule.
func Match(a, b *Ad) (bool, error) {
	okA, err := Satisfies(a, b)
	if err != nil {
		return false, err
	}
	if !okA {
		return false, nil
	}
	return Satisfies(b, a)
}

// Satisfies evaluates self's Requirements with the given other side.
func Satisfies(self, other *Ad) (bool, error) {
	if strings.TrimSpace(self.Requirements) == "" {
		return true, nil
	}
	v, err := Eval(self.Requirements, self, other)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

// RankOf evaluates self's Rank against a candidate; non-numeric or
// undefined ranks are 0.
func RankOf(self, other *Ad) float64 {
	if strings.TrimSpace(self.Rank) == "" {
		return 0
	}
	v, err := Eval(self.Rank, self, other)
	if err != nil {
		return 0
	}
	if f, ok := v.(float64); ok {
		return f
	}
	return 0
}

// MatchResult pairs a candidate with the requester's rank for it.
type MatchResult struct {
	Ad   *Ad
	Rank float64
}

// MatchAll returns the candidates matching request, ordered by descending
// request rank (ties broken by dn for determinism).
func MatchAll(request *Ad, candidates []*Ad) ([]MatchResult, error) {
	var out []MatchResult
	for _, c := range candidates {
		ok, err := Match(request, c)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, MatchResult{Ad: c, Rank: RankOf(request, c)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank > out[j].Rank
		}
		di, _ := out[i].Ad.Get("dn").(string)
		dj, _ := out[j].Ad.Get("dn").(string)
		return di < dj
	})
	return out, nil
}

// Eval evaluates a classad expression with self/other binding.
// Grammar (precedence low→high):
//
//	expr   := or
//	or     := and ("||" and)*
//	and    := not ("&&" not)*
//	not    := "!" not | cmp
//	cmp    := sum (("=="|"!="|"<="|">="|"<"|">") sum)?
//	sum    := prod (("+"|"-") prod)*
//	prod   := unary (("*"|"/") unary)*
//	unary  := "-" unary | primary
//	primary:= NUMBER | STRING | "true" | "false" | "undefined"
//	        | ("self."|"other.")? IDENT | "(" expr ")"
//
// Bare identifiers resolve against self. String comparison is
// case-insensitive (matching the LDAP caseIgnore convention). Any
// comparison or arithmetic over Undefined yields Undefined; && and ||
// use three-valued logic so partial information cannot fake a match.
func Eval(expr string, self, other *Ad) (Value, error) {
	p := &parser{in: expr, self: self, other: other}
	v, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("matchmake: trailing input %q", p.in[p.pos:])
	}
	return v, nil
}

type parser struct {
	in    string
	pos   int
	self  *Ad
	other *Ad
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) lit(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.in[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parseOr() (Value, error) {
	v, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.lit("||") {
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		v = or3(v, rhs)
	}
	return v, nil
}

func (p *parser) parseAnd() (Value, error) {
	v, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.lit("&&") {
		rhs, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		v = and3(v, rhs)
	}
	return v, nil
}

func (p *parser) parseNot() (Value, error) {
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '!' && !strings.HasPrefix(p.in[p.pos:], "!=") {
		p.pos++
		v, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		if b, ok := v.(bool); ok {
			return !b, nil
		}
		return Undefined{}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Value, error) {
	lhs, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.lit(op) {
			rhs, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return compare(op, lhs, rhs), nil
		}
	}
	return lhs, nil
}

func (p *parser) parseSum() (Value, error) {
	v, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch {
		case p.lit("+"):
			rhs, err := p.parseProd()
			if err != nil {
				return nil, err
			}
			v = arith("+", v, rhs)
		case p.lit("-"):
			rhs, err := p.parseProd()
			if err != nil {
				return nil, err
			}
			v = arith("-", v, rhs)
		default:
			return v, nil
		}
	}
}

func (p *parser) parseProd() (Value, error) {
	v, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		switch {
		case p.lit("*"):
			rhs, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			v = arith("*", v, rhs)
		case p.lit("/"):
			rhs, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			v = arith("/", v, rhs)
		default:
			return v, nil
		}
	}
}

func (p *parser) parseUnary() (Value, error) {
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '-' {
		p.pos++
		v, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if f, ok := v.(float64); ok {
			return -f, nil
		}
		return Undefined{}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Value, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, fmt.Errorf("matchmake: unexpected end of expression")
	}
	c := p.in[p.pos]
	switch {
	case c == '(':
		p.pos++
		v, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.lit(")") {
			return nil, fmt.Errorf("matchmake: missing ')' at %d", p.pos)
		}
		return v, nil
	case c == '"':
		return p.parseString()
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumber()
	default:
		return p.parseIdent()
	}
}

func (p *parser) parseString() (Value, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '\\' && p.pos+1 < len(p.in) {
			p.pos++
			b.WriteByte(p.in[p.pos])
			p.pos++
			continue
		}
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		p.pos++
	}
	return nil, fmt.Errorf("matchmake: unterminated string")
}

func (p *parser) parseNumber() (Value, error) {
	start := p.pos
	for p.pos < len(p.in) && (p.in[p.pos] >= '0' && p.in[p.pos] <= '9' || p.in[p.pos] == '.') {
		p.pos++
	}
	f, err := strconv.ParseFloat(p.in[start:p.pos], 64)
	if err != nil {
		return nil, fmt.Errorf("matchmake: bad number %q", p.in[start:p.pos])
	}
	return f, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.'
}

func (p *parser) parseIdent() (Value, error) {
	start := p.pos
	for p.pos < len(p.in) && isIdentChar(p.in[p.pos]) {
		p.pos++
	}
	word := p.in[start:p.pos]
	if word == "" {
		return nil, fmt.Errorf("matchmake: unexpected character %q at %d", p.in[p.pos], p.pos)
	}
	switch strings.ToLower(word) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "undefined":
		return Undefined{}, nil
	}
	lower := strings.ToLower(word)
	switch {
	case strings.HasPrefix(lower, "other."):
		return p.other.Get(lower[len("other."):]), nil
	case strings.HasPrefix(lower, "self."):
		return p.self.Get(lower[len("self."):]), nil
	default:
		return p.self.Get(lower), nil
	}
}

func isUndef(v Value) bool {
	_, ok := v.(Undefined)
	return ok
}

func and3(a, b Value) Value {
	if ab, ok := a.(bool); ok && !ab {
		return false
	}
	if bb, ok := b.(bool); ok && !bb {
		return false
	}
	ab, aok := a.(bool)
	bb, bok := b.(bool)
	if aok && bok {
		return ab && bb
	}
	return Undefined{}
}

func or3(a, b Value) Value {
	if ab, ok := a.(bool); ok && ab {
		return true
	}
	if bb, ok := b.(bool); ok && bb {
		return true
	}
	ab, aok := a.(bool)
	bb, bok := b.(bool)
	if aok && bok {
		return ab || bb
	}
	return Undefined{}
}

func compare(op string, a, b Value) Value {
	if isUndef(a) || isUndef(b) {
		return Undefined{}
	}
	switch av := a.(type) {
	case float64:
		bv, ok := b.(float64)
		if !ok {
			return Undefined{}
		}
		switch op {
		case "==":
			return av == bv
		case "!=":
			return av != bv
		case "<":
			return av < bv
		case ">":
			return av > bv
		case "<=":
			return av <= bv
		case ">=":
			return av >= bv
		}
	case string:
		bv, ok := b.(string)
		if !ok {
			return Undefined{}
		}
		cmp := strings.Compare(strings.ToLower(av), strings.ToLower(bv))
		switch op {
		case "==":
			return cmp == 0
		case "!=":
			return cmp != 0
		case "<":
			return cmp < 0
		case ">":
			return cmp > 0
		case "<=":
			return cmp <= 0
		case ">=":
			return cmp >= 0
		}
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return Undefined{}
		}
		switch op {
		case "==":
			return av == bv
		case "!=":
			return av != bv
		}
		return Undefined{}
	}
	return Undefined{}
}

func arith(op string, a, b Value) Value {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if !aok || !bok {
		return Undefined{}
	}
	switch op {
	case "+":
		return af + bf
	case "-":
		return af - bf
	case "*":
		return af * bf
	case "/":
		if bf == 0 {
			return Undefined{}
		}
		return af / bf
	}
	return Undefined{}
}
