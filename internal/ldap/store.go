package ldap

import (
	"slices"
	"strings"
	"sync"
)

// Store is a thread-safe, indexed in-memory directory information tree:
// the data plane under a GRIS provider round, a GIIS child table's name
// index and the MDS-1 style centralized baseline. It is not a server; the
// GRIS and GIIS Handlers read it.
//
// The data plane is indexed and copy-on-write:
//
//   - A DN tree (parent→children) makes scoped reads walk only the
//     relevant subtree instead of testing every entry in the store.
//   - Equality and presence indexes over folded attribute names and values
//     let Find derive a candidate set from indexable filter shapes
//     (equality and presence leaves, intersected through AND, unioned
//     through OR) instead of scanning.
//   - Stored entries are immutable snapshots: every mutation installs a
//     fresh entry (Put copies, Adopt takes the caller's), so Find and
//     AppendCompiled hand out the stored pointer without cloning. Callers
//     MUST NOT mutate entries they return; use Clone first. Get still
//     returns a private copy.
type Store struct {
	// Schema, when non-nil, validates entries on Put, PutAll and Adopt.
	Schema *Schema

	mu    sync.RWMutex
	root  *node            // DN-tree root (the empty DN)
	nodes map[string]*node // normalized DN -> node (incl. phantom interiors)
	count int              // nodes holding an entry

	// eq indexes folded attr -> folded value -> nodes carrying that value;
	// pres indexes folded attr -> nodes carrying the attribute. Both are
	// maintained incrementally by every mutation.
	eq   map[string]map[string]nodeSet
	pres map[string]nodeSet
}

// node is one position in the DN tree. Interior positions whose DN has no
// entry of its own (a "phantom" node, e.g. the parent of the only entry)
// carry entry == nil and exist purely to connect the tree.
type node struct {
	key      string // normalized DN
	depth    int    // number of RDN components
	parent   *node
	children map[string]*node // child normalized DN -> node
	entry    *Entry           // immutable snapshot; nil for phantom nodes
}

// nodeSet is one index posting: the nodes carrying an attribute or a value.
// A directory's naming attributes are unique per entry, so most equality
// postings hold exactly one node; that one is kept inline and the map is
// only allocated for a second member. A node is never in both.
type nodeSet struct {
	one  *node
	more map[*node]struct{}
}

func (s nodeSet) len() int {
	if s.one != nil {
		return 1 + len(s.more)
	}
	return len(s.more)
}

func (s *nodeSet) add(n *node) {
	switch {
	case s.one == n:
	case s.one == nil && len(s.more) == 0:
		s.one = n
	default:
		if s.more == nil {
			s.more = map[*node]struct{}{}
		}
		s.more[n] = struct{}{}
	}
}

func (s *nodeSet) remove(n *node) {
	if s.one == n {
		s.one = nil
	} else {
		delete(s.more, n)
	}
}

func (s *nodeSet) addAll(o nodeSet) {
	if o.one != nil {
		s.add(o.one)
	}
	for n := range o.more {
		s.add(n)
	}
}

// appendTo appends the members to dst, in no particular order.
func (s nodeSet) appendTo(dst []*node) []*node {
	if s.one != nil {
		dst = append(dst, s.one)
	}
	for n := range s.more {
		dst = append(dst, n)
	}
	return dst
}

// inScope reports whether n falls inside the search region rooted at base,
// using tree pointers only — no DN normalization on the read path.
func (n *node) inScope(base *node, scope Scope) bool {
	switch scope {
	case ScopeBaseObject:
		return n == base
	case ScopeSingleLevel:
		return n.parent == base
	case ScopeWholeSubtree:
		p := n
		for p != nil && p.depth > base.depth {
			p = p.parent
		}
		return p == base
	}
	return false
}

// NewStore returns an empty store.
func NewStore() *Store {
	root := &node{key: ""}
	return &Store{
		root:  root,
		nodes: map[string]*node{"": root},
		eq:    map[string]map[string]nodeSet{},
		pres:  map[string]nodeSet{},
	}
}

// Len returns the number of entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Get returns a copy of the entry with the given DN.
func (s *Store) Get(dn DN) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.nodes[dn.Normalize()]
	if n == nil || n.entry == nil {
		return nil, false
	}
	return n.entry.Clone(), true
}

// ensureNodeLocked returns the tree node for dn, creating it and any
// missing ancestors on the way down from the root.
func (s *Store) ensureNodeLocked(dn DN) *node {
	n := s.root
	for i := len(dn) - 1; i >= 0; i-- {
		key := DN(dn[i:]).Normalize()
		child := n.children[key]
		if child == nil {
			child = &node{key: key, depth: len(dn) - i, parent: n}
			if n.children == nil {
				n.children = map[string]*node{}
			}
			n.children[key] = child
			s.nodes[key] = child
		}
		n = child
	}
	return n
}

// pruneLocked removes n and any newly childless ancestors that hold no
// entry, so the tree never accumulates dead phantom chains.
func (s *Store) pruneLocked(n *node) {
	for n != s.root && n.entry == nil && len(n.children) == 0 {
		p := n.parent
		delete(p.children, n.key)
		delete(s.nodes, n.key)
		n = p
	}
}

func (s *Store) indexLocked(n *node) {
	for _, a := range n.entry.Attributes() {
		af := FoldKey(a.Name)
		ps := s.pres[af]
		ps.add(n)
		s.pres[af] = ps
		vm := s.eq[af]
		if vm == nil {
			vm = map[string]nodeSet{}
			s.eq[af] = vm
		}
		for _, v := range a.Values {
			vf := FoldKey(v)
			vs := vm[vf]
			vs.add(n)
			vm[vf] = vs
		}
	}
}

// dropPosting removes n from the posting under key, and the posting itself
// once it is empty.
func dropPosting(m map[string]nodeSet, key string, n *node) {
	ps := m[key]
	ps.remove(n)
	if ps.len() == 0 {
		delete(m, key)
	} else {
		m[key] = ps
	}
}

func (s *Store) unindexLocked(n *node) {
	for _, a := range n.entry.Attributes() {
		af := FoldKey(a.Name)
		dropPosting(s.pres, af, n)
		vm := s.eq[af]
		for _, v := range a.Values {
			dropPosting(vm, FoldKey(v), n)
		}
		if len(vm) == 0 {
			delete(s.eq, af)
		}
	}
}

// putLocked installs cp (never mutated afterwards) at its node, maintaining
// the indexes.
func (s *Store) putLocked(cp *Entry) {
	cp.publish()
	n := s.ensureNodeLocked(cp.DN)
	if n.entry != nil {
		s.unindexLocked(n)
	} else {
		s.count++
	}
	n.entry = cp
	s.indexLocked(n)
}

// Put inserts or replaces an entry. The entry is copied; the caller keeps
// ownership of e.
func (s *Store) Put(e *Entry) error {
	if s.Schema != nil {
		if err := s.Schema.Validate(e); err != nil {
			return err
		}
	}
	cp := e.Clone()
	s.mu.Lock()
	s.putLocked(cp)
	s.mu.Unlock()
	return nil
}

// PutAll inserts or replaces a batch of entries under a single lock
// acquisition — the bulk path used by MDS-1 style pushers, which re-upload
// a resource's complete description every interval. Schema validation
// happens up front; on error nothing is applied. The entries are copied;
// the caller keeps ownership of them.
func (s *Store) PutAll(entries []*Entry) error {
	cps := make([]*Entry, len(entries))
	for i, e := range entries {
		cps[i] = e.Clone()
	}
	return s.Adopt(cps)
}

// Adopt is PutAll without the copy, for a producer handing over a complete
// result set it is done with (a GRIS provider round): the entries
// themselves become the store's immutable snapshots, so the caller must
// never mutate them again — it may keep reading them, and may adopt them
// into a later store. A received (wire-backed) entry is the exception: the
// store keeps a CompactSnapshots copy of it instead, as everything that
// keeps an entry past its reply must, so the store pins no read chunk. The
// caller's slice is left as it is.
func (s *Store) Adopt(entries []*Entry) error {
	for _, e := range entries {
		if e.raw != nil {
			entries = slices.Clone(entries)
			CompactSnapshots(entries)
			break
		}
	}
	if s.Schema != nil {
		for _, e := range entries {
			if err := s.Schema.Validate(e); err != nil {
				return err
			}
		}
	}
	s.mu.Lock()
	for _, e := range entries {
		s.putLocked(e)
	}
	s.mu.Unlock()
	return nil
}

// removeLocked detaches n's entry, maintaining indexes and pruning the
// tree.
func (s *Store) removeLocked(n *node) {
	s.unindexLocked(n)
	n.entry = nil
	s.count--
	s.pruneLocked(n)
}

// Remove deletes the entry with the given DN, reporting whether it existed.
func (s *Store) Remove(dn DN) bool {
	s.mu.Lock()
	n := s.nodes[dn.Normalize()]
	if n == nil || n.entry == nil {
		s.mu.Unlock()
		return false
	}
	s.removeLocked(n)
	s.mu.Unlock()
	return true
}

// RemoveSubtree deletes an entry and all its descendants, returning the
// number removed.
func (s *Store) RemoveSubtree(dn DN) int {
	s.mu.Lock()
	bn := s.nodes[dn.Normalize()]
	if bn == nil {
		s.mu.Unlock()
		return 0
	}
	var doomed []*node
	var walk func(*node)
	walk = func(n *node) {
		if n.entry != nil {
			doomed = append(doomed, n)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(bn)
	for _, n := range doomed {
		s.removeLocked(n)
	}
	s.mu.Unlock()
	return len(doomed)
}

// Find returns the entries within scope of base matching filter, in
// (depth, DN) order. A nil filter matches everything. The returned entries
// are the store's immutable snapshots — do not mutate them.
func (s *Store) Find(base DN, scope Scope, filter *Filter) []*Entry {
	out, _ := s.AppendCompiled(nil, base, scope, filter.Compile(), 0)
	return out
}

// AppendCompiled is Find for a caller that holds the compiled filter, with
// an early-terminating size limit, appending its result to dst. Once limit
// matches (in result order) have been collected the walk stops, and the
// second result reports whether at least one further match was cut off —
// a search's SizeLimitExceeded signal; a limit <= 0 means unlimited. A
// caller that gathers results in scratch of its own, such as an array on
// its stack, makes no allocation for a result that fits there, and the
// index's candidates are gathered on AppendCompiled's own stack while they
// fit.
func (s *Store) AppendCompiled(dst []*Entry, base DN, scope Scope, cf *Compiled, limit int64) ([]*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var key [96]byte
	bn := s.nodes[string(base.AppendNormalized(key[:0]))]
	if bn == nil {
		return dst, false
	}
	first, more := len(dst), false
	if cands, ok := s.candidatesLocked(cf); ok {
		var scratch [16]*node
		all := scratch[:0]
		if n := cands.len(); n > len(scratch) {
			all = make([]*node, 0, n)
		}
		dst, more = appendCandidates(dst, cands.appendTo(all), bn, scope, cf, limit)
	} else {
		dst, more = walkScope(dst, bn, scope, cf, limit)
	}
	verifyEntries(dst[first:])
	return dst, more
}

// candidatesLocked derives a candidate node set from the indexable shape
// of the filter: equality and presence leaves read their index bucket
// directly, AND picks the smallest candidate set among its indexable
// conjuncts (a superset of the conjunction), OR unions its children when
// all of them are indexable. ok=false means the filter has no indexable
// handle and the caller must fall back to the scoped tree walk. Candidates
// are always re-verified against the full filter.
func (s *Store) candidatesLocked(c *Compiled) (nodeSet, bool) {
	if c == nil {
		return nodeSet{}, false
	}
	switch c.kind {
	case FilterEquality:
		return s.eq[c.attrFold][c.valueFold], true
	case FilterPresent:
		return s.pres[c.attrFold], true
	case FilterAnd:
		var best nodeSet
		found := false
		for _, sub := range c.subs {
			if set, ok := s.candidatesLocked(sub); ok {
				if !found || set.len() < best.len() {
					best, found = set, true
				}
			}
		}
		return best, found
	case FilterOr:
		union := nodeSet{}
		for _, sub := range c.subs {
			set, ok := s.candidatesLocked(sub)
			if !ok {
				return nodeSet{}, false
			}
			union.addAll(set)
		}
		return union, true
	}
	return nodeSet{}, false
}

// appendCandidates verifies index-derived candidates against scope and the
// full filter, then orders and truncates them, and appends their entries to
// dst. Candidate sets are small by construction, so sort-then-truncate here
// is cheap.
func appendCandidates(dst []*Entry, cands []*node, bn *node, scope Scope, cf *Compiled, limit int64) ([]*Entry, bool) {
	matched := cands[:0]
	for _, n := range cands {
		if n.entry != nil && n.inScope(bn, scope) && cf.Matches(n.entry) {
			matched = append(matched, n)
		}
	}
	sortNodes(matched)
	truncated := false
	if limit > 0 && int64(len(matched)) > limit {
		matched, truncated = matched[:limit], true
	}
	dst = slices.Grow(dst, len(matched))
	for _, n := range matched {
		dst = append(dst, n.entry)
	}
	return dst, truncated
}

// walkScope answers a non-indexable query by walking only the tree region
// the scope can reach, level by level with each level in key order — which
// emits matches in exactly SortEntries order, so an early size-limit cut
// returns the same prefix a full sort would have. It appends them to dst.
func walkScope(dst []*Entry, bn *node, scope Scope, cf *Compiled, limit int64) ([]*Entry, bool) {
	first := len(dst)
	add := func(n *node) bool { // false: the limit cut the walk
		if n.entry == nil || !cf.Matches(n.entry) {
			return true
		}
		if limit > 0 && int64(len(dst)-first) >= limit {
			return false
		}
		dst = append(dst, n.entry)
		return true
	}
	switch scope {
	case ScopeBaseObject:
		return dst, !add(bn)
	case ScopeSingleLevel:
		for _, c := range sortedChildren(bn) {
			if !add(c) {
				return dst, true
			}
		}
	case ScopeWholeSubtree:
		level := []*node{bn}
		for len(level) > 0 {
			for _, n := range level {
				if !add(n) {
					return dst, true
				}
			}
			var next []*node
			for _, n := range level {
				for _, c := range n.children {
					next = append(next, c)
				}
			}
			sortNodes(next) // one level deep: orders by key
			level = next
		}
	}
	return dst, false
}

func sortedChildren(n *node) []*node {
	out := make([]*node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sortNodes(out)
	return out
}

// sortNodes orders nodes by (depth, normalized DN) — the SortEntries
// ordering, computed from precomputed node keys without re-normalizing.
func sortNodes(ns []*node) {
	slices.SortFunc(ns, func(a, b *node) int {
		if a.depth != b.depth {
			return a.depth - b.depth
		}
		return strings.Compare(a.key, b.key)
	})
}

// All returns a snapshot of every entry.
func (s *Store) All() []*Entry { return s.Find(DN{}, ScopeWholeSubtree, nil) }
