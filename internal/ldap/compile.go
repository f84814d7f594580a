package ldap

import (
	"strconv"
	"strings"
)

// Compiled is a pre-normalized evaluation plan for a Filter. Compiling once
// per query (not per entry) hoists every per-evaluation allocation out of
// the hot path: attribute names and values are case-folded up front for
// index lookups, ordering constants are parsed numerically once, and the
// match itself runs through the allocation-free fold helpers. A Compiled
// filter is immutable and safe for concurrent use.
//
// A nil *Compiled, like a nil *Filter, matches every entry.
type Compiled struct {
	kind FilterKind
	subs []*Compiled

	attrFold  string // folded attribute name: equality/presence index key
	valueFold string // folded assertion value: equality index key

	valueNum   float64 // pre-parsed ordering constant for GE/LE
	valueIsNum bool

	src *Filter
}

// Compile builds the evaluation plan for f. Compiling a nil filter returns
// nil, which Matches treats as match-all, so callers can compile
// unconditionally. The source filter must not be mutated afterwards.
//
// A plan is laid out in one array of nodes and one of subplan pointers, cut
// with capped capacities: two allocations for any filter, one for a leaf.
func (f *Filter) Compile() *Compiled { return f.compileInto(nil, nil) }

// compileInto is Compile with the plan laid out in nodes and subs, each
// replaced by an array of its own when it is too short: a scanned search
// request compiles its filter into arrays inside its one allocation.
func (f *Filter) compileInto(nodes []Compiled, subs []*Compiled) *Compiled {
	if f == nil {
		return nil
	}
	n, k := f.planSize()
	if n > len(nodes) {
		nodes = make([]Compiled, n)
	}
	if k > len(subs) {
		subs = make([]*Compiled, k)
	}
	p := planner{nodes: nodes, subs: subs}
	return p.compile(f)
}

// planSize counts the plan nodes and subplan pointers f compiles to. A nil
// subfilter takes a pointer and no node: its plan is nil, matching all.
func (f *Filter) planSize() (nodes, subs int) {
	if f == nil {
		return 0, 0
	}
	nodes = 1
	switch f.Kind {
	case FilterAnd, FilterOr, FilterNot:
		subs = len(f.Subs)
		for _, sub := range f.Subs {
			n, s := sub.planSize()
			nodes, subs = nodes+n, subs+s
		}
	}
	return nodes, subs
}

// planner hands out the arrays planSize sized, in the order compile takes
// them.
type planner struct {
	nodes []Compiled
	subs  []*Compiled
}

func (p *planner) compile(f *Filter) *Compiled {
	if f == nil {
		return nil
	}
	c := &p.nodes[0]
	p.nodes = p.nodes[1:]
	c.kind, c.src = f.Kind, f
	switch f.Kind {
	case FilterAnd, FilterOr, FilterNot:
		k := len(f.Subs)
		c.subs, p.subs = p.subs[:k:k], p.subs[k:]
		for i, sub := range f.Subs {
			c.subs[i] = p.compile(sub)
		}
	case FilterGE, FilterLE:
		c.attrFold = FoldKey(f.Attr)
		c.valueFold = FoldKey(f.Value)
		if looksNumeric(f.Value) {
			if v, err := strconv.ParseFloat(strings.TrimSpace(f.Value), 64); err == nil {
				c.valueNum, c.valueIsNum = v, true
			}
		}
	default:
		c.attrFold = FoldKey(f.Attr)
		c.valueFold = FoldKey(f.Value)
	}
	return c
}

// Source returns the filter this plan was compiled from (nil for nil).
func (c *Compiled) Source() *Filter {
	if c == nil {
		return nil
	}
	return c.src
}

// Matches evaluates the compiled filter against an entry without
// allocating. A nil receiver matches everything.
func (c *Compiled) Matches(e *Entry) bool {
	if c == nil {
		return true
	}
	switch c.kind {
	case FilterAnd:
		for _, sub := range c.subs {
			if !sub.Matches(e) {
				return false
			}
		}
		return true
	case FilterOr:
		for _, sub := range c.subs {
			if sub.Matches(e) {
				return true
			}
		}
		return false
	case FilterNot:
		return !c.subs[0].Matches(e)
	case FilterPresent:
		return e.Has(c.src.Attr)
	case FilterEquality:
		return e.HasValue(c.src.Attr, c.src.Value)
	case FilterApprox:
		for _, v := range e.Values(c.src.Attr) {
			if squashFoldEqual(v, c.src.Value) {
				return true
			}
		}
		return false
	case FilterGE:
		for _, v := range e.Values(c.src.Attr) {
			if c.orderCompare(v) >= 0 {
				return true
			}
		}
		return false
	case FilterLE:
		for _, v := range e.Values(c.src.Attr) {
			if c.orderCompare(v) <= 0 {
				return true
			}
		}
		return false
	case FilterSubstrings:
		for _, v := range e.Values(c.src.Attr) {
			if matchSubstringFold(v, c.src.Initial, c.src.Any, c.src.Final) {
				return true
			}
		}
		return false
	}
	return false
}

// orderCompare compares an entry value against the compiled ordering
// constant: numerically when both sides parse, fold-lexicographically
// otherwise — the same relation as the uncompiled orderCompare, with the
// constant's parse hoisted to compile time.
func (c *Compiled) orderCompare(v string) int {
	if c.valueIsNum && looksNumeric(v) {
		if fv, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			switch {
			case fv < c.valueNum:
				return -1
			case fv > c.valueNum:
				return 1
			}
			return 0
		}
	}
	return foldCompare(v, c.src.Value)
}
