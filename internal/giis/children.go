package giis

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// childTable is the directory's materialised view of its registrations: one
// record per live, parsable registration, kept in step with the soft-state
// registry through its transition feed (softstate.Journal). A registration
// is parsed once, when its descriptive fields first appear or change, and
// its record is then fixed: a plain refresh only stores the record's new
// liveness (deadline and refresh time), which readers load when they use
// it. So membership — joins, leaves and re-descriptions, which move the
// generation — is kept apart from liveness, which does not, and everything
// derived from the child set is rebuilt per membership change, not per
// refresh. Records hang on a view tree keyed by ViewSuffix, so a search
// finds the children its region can touch by a walk of O(depth + result)
// (region). The name index is read off the table too, so a search never
// re-parses or re-sorts the registrations.
//
// JournalRegistry runs under the registry lock. The lock order is registry
// → table → name index, and nothing here calls back into the registry;
// readers first let the registry apply due expiries (Server.sweep), then
// take only the table and index locks.
type childTable struct {
	suffix  ldap.DN
	name    string
	selfURL string
	// caches are keyed by child service key (the query cache, a strategy's
	// per-child state): a departed child leaves them all. Filled while the
	// server is assembled, read-only after.
	caches []interface{ InvalidateOwner(owner string) int }

	mu    sync.Mutex
	byKey map[string]*childRec // registry key → record
	// sorted holds the records in Children() order as of the last merge:
	// joins since then wait in pending, and records dropped since then are
	// still in one of the two with dead set (ndead counts them). merge
	// always installs a fresh slice, so one handed out is never written.
	sorted  []*childRec
	pending []*childRec
	ndead   int
	// gen advances with every membership change; a value derived from the
	// child set is memoized against it.
	gen uint64
	// view is the root of the view tree (the empty DN).
	view viewNode
	// index is the name index — the self entry plus one mds-child entry per
	// record — built from the table by the first index query and maintained
	// from then on.
	index *ldap.Store
}

// childRec is one registration as the directory uses it. Everything but its
// liveness is fixed when it is built.
type childRec struct {
	// Child holds the descriptive fields; its ExpiresAt and LastRefresh stay
	// zero, and child() fills them in from live.
	Child
	live  atomic.Pointer[liveness]
	key   string        // registry key
	order string        // Child.URL rendered: the Children() sort key
	msg   *grrp.Message // last applied registration; its fields describe the record
	entry *ldap.Entry   // immutable name-index entry; nil until the index exists
	node  *viewNode     // where the record hangs on the view tree; nil once dropped
	dead  bool
}

// liveness is what a plain refresh changes, replaced whole.
type liveness struct{ expiresAt, lastRefresh time.Time }

// child returns the record as a Child with its current deadline and refresh
// time.
func (rec *childRec) child() Child {
	c := rec.Child
	l := rec.live.Load()
	c.ExpiresAt, c.LastRefresh = l.expiresAt, l.lastRefresh
	return c
}

func (rec *childRec) refresh(it *softstate.Item) {
	rec.live.Store(&liveness{expiresAt: it.ExpiresAt, lastRefresh: it.LastRefresh})
}

// childOrder is the Children() order: by rendered URL, registry key breaking
// ties.
func childOrder(a, b *childRec) int {
	if c := strings.Compare(a.order, b.order); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// viewNode is one position of the view tree: the namespace of the
// directory's view, cut down to the view suffixes of its records and their
// ancestors. Children are keyed by their normalized RDN, so a walk down a
// base DN looks each level up from a stack buffer.
type viewNode struct {
	parent   *viewNode
	rdn      string // normalized leaf RDN: the key in parent.children
	children map[string]*viewNode
	recs     []*childRec // records whose ViewSuffix names this position
	n        int         // records at or below this position
}

// rdnKey renders the normalized key of dn's i'th RDN into buf.
func rdnKey(buf []byte, dn ldap.DN, i int) []byte {
	return dn[i : i+1].AppendNormalized(buf[:0])
}

// hang places rec at its view suffix's position, making the way there.
func (t *childTable) hang(rec *childRec) {
	var buf [64]byte
	n := &t.view
	n.n++
	for v, i := rec.ViewSuffix, len(rec.ViewSuffix)-1; i >= 0; i-- {
		key := rdnKey(buf[:], v, i)
		c := n.children[string(key)]
		if c == nil {
			c = &viewNode{parent: n, rdn: string(key)}
			if n.children == nil {
				n.children = map[string]*viewNode{}
			}
			n.children[c.rdn] = c
		}
		c.n++
		n = c
	}
	n.recs = append(n.recs, rec)
	rec.node = n
}

// unhang takes rec off the view tree, pruning positions left empty.
func (t *childTable) unhang(rec *childRec) {
	n := rec.node
	rec.node = nil
	n.recs = slices.DeleteFunc(n.recs, func(r *childRec) bool { return r == rec })
	for ; n != nil; n = n.parent {
		if n.n--; n.n == 0 && n.parent != nil {
			delete(n.parent.children, n.rdn)
		}
	}
}

// region returns the children a search of (base, scope) can touch — those
// translateRegion accepts — in Children() order, with current deadlines:
// the records on base's ancestor-or-self path, plus those on the positions
// directly below base (one-level) or anywhere below it (subtree). An empty
// region allocates nothing.
func (t *childTable) region(base ldap.DN, scope ldap.Scope) []Child {
	t.mu.Lock()
	defer t.mu.Unlock()
	var stack [16]*childRec
	recs := append(stack[:0], t.view.recs...)
	var buf [64]byte
	n := &t.view
	for i := len(base) - 1; i >= 0 && n != nil; i-- {
		if n = n.children[string(rdnKey(buf[:], base, i))]; n != nil {
			recs = append(recs, n.recs...)
		}
	}
	switch {
	case n == nil: // base names no position, so nothing hangs below it
	case scope == ldap.ScopeSingleLevel:
		for _, c := range n.children {
			recs = append(recs, c.recs...)
		}
	case scope == ldap.ScopeWholeSubtree && n.n == len(t.byKey):
		// Every record is at or below base: the region is the child set.
		t.merge()
		return children(t.sorted)
	case scope == ldap.ScopeWholeSubtree:
		recs = appendBelow(recs, n)
	}
	slices.SortFunc(recs, childOrder)
	return children(recs)
}

// appendBelow appends the records on every position strictly below n.
func appendBelow(recs []*childRec, n *viewNode) []*childRec {
	for _, c := range n.children {
		recs = appendBelow(append(recs, c.recs...), c)
	}
	return recs
}

// children renders records as children with current deadlines; nil for none.
func children(recs []*childRec) []Child {
	if len(recs) == 0 {
		return nil
	}
	out := make([]Child, len(recs))
	for i, rec := range recs {
		out[i] = rec.child()
	}
	return out
}

func newChildTable(cfg *Config) *childTable {
	return &childTable{suffix: cfg.Suffix, name: cfg.Name, selfURL: cfg.SelfURL.String(),
		byKey: map[string]*childRec{}, gen: 1}
}

// JournalRegistry implements softstate.Journal.
func (t *childTable) JournalRegistry(recs []softstate.JournalRecord) {
	var gone []string // service keys of the children that left
	t.mu.Lock()
	members := len(t.byKey)
	moved := false
	for i := range recs {
		it := &recs[i].Item
		if recs[i].Op == softstate.JournalRefresh {
			moved = t.upsert(it) || moved
		} else if rec := t.byKey[it.Key]; rec != nil {
			t.drop(rec)
			moved = true
			gone = append(gone, rec.service())
		}
	}
	if moved {
		t.gen++
	}
	if t.index != nil && len(t.byKey) != members {
		t.adopt(t.selfEntry())
	}
	if t.ndead > len(t.byKey) {
		// Nobody is asking for snapshots; keep churn from piling up dead records.
		t.merge()
	}
	t.mu.Unlock()
	// A lapsed or withdrawn child leaves every cache now instead of waiting
	// out a TTL. Joins and refreshes need nothing: keys are per child, so a
	// new child is simply a future miss.
	for _, owner := range gone {
		for _, c := range t.caches {
			c.InvalidateOwner(owner)
		}
	}
}

// upsert applies one refresh: a plain one stores the record's new liveness,
// a first or re-described one (re)builds the record. It reports whether the
// membership changed.
func (t *childTable) upsert(it *softstate.Item) bool {
	m, _ := it.Payload.(*grrp.Message)
	rec := t.byKey[it.Key]
	if rec != nil && m != nil && rec.describedBy(m, it.Recovered) {
		rec.msg = m // let go of the superseded message
		rec.refresh(it)
		return false
	}
	moved := rec != nil
	if rec != nil {
		t.drop(rec)
	}
	if m == nil {
		return moved
	}
	url, err := ldap.ParseURL(m.ServiceURL)
	if err != nil {
		return moved
	}
	suffix, err := ldap.ParseDN(m.SuffixDN)
	if err != nil {
		return moved
	}
	// A child whose namespace already sits under this directory's suffix
	// keeps its name; foreign namespaces are grafted beneath the suffix (the
	// Figure 5 VO view).
	view := suffix
	if !suffix.Equal(t.suffix) && !suffix.IsDescendantOf(t.suffix) {
		view = suffix.Under(t.suffix)
	}
	rec = &childRec{key: it.Key, order: url.String(), msg: m, Child: Child{
		URL: url, Suffix: suffix, ViewSuffix: view, MDSType: m.MDSType, VO: m.VO,
		Recovered: it.Recovered, serviceKey: url.ServiceKey(), suffix: suffix.String(),
	}}
	rec.refresh(it)
	t.byKey[it.Key] = rec
	t.pending = append(t.pending, rec)
	t.hang(rec)
	if t.index != nil {
		rec.entry = t.indexEntry(rec)
		t.adopt(rec.entry)
	}
	return true
}

// describedBy reports whether a refresh carrying m leaves everything the
// record was built from as it is.
func (rec *childRec) describedBy(m *grrp.Message, recovered bool) bool {
	was := rec.msg
	return rec.Recovered == recovered && (was == m || was.ServiceURL == m.ServiceURL &&
		was.SuffixDN == m.SuffixDN && was.MDSType == m.MDSType && was.VO == m.VO)
}

// drop deletes a record and its name-index entry.
func (t *childTable) drop(rec *childRec) {
	delete(t.byKey, rec.key)
	t.unhang(rec)
	rec.dead = true
	t.ndead++
	if t.index == nil {
		return
	}
	t.index.Remove(rec.entry.DN)
	if t.index.Len() > len(t.byKey) {
		return
	}
	// The index is short of one entry per record plus the self entry: some
	// registrations render to one mds-child DN (URLs differing in case or a
	// trailing slash) and share its entry. If rec's DN has such a sibling,
	// the entry is the sibling's now.
	for _, r := range t.byKey {
		if r.entry.DN.Equal(rec.entry.DN) {
			t.adopt(r.entry)
			return
		}
	}
}

func (t *childTable) adopt(e *ldap.Entry) {
	// Adopt cannot fail on a store without a schema or a persister.
	_ = t.index.Adopt([]*ldap.Entry{e})
}

// records returns the live records in Children() order and the generation
// they make up. The slice is never written.
func (t *childTable) records() ([]*childRec, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.merge()
	return t.sorted, t.gen
}

// merge folds the joins and drops since the last merge into sorted: only
// the joins are sorted, then one pass merges them in and leaves the dead out.
func (t *childTable) merge() {
	if len(t.pending) == 0 && t.ndead == 0 {
		return
	}
	slices.SortFunc(t.pending, childOrder)
	merged := make([]*childRec, 0, len(t.byKey))
	old, joined := t.sorted, t.pending
	for len(old) > 0 || len(joined) > 0 {
		var next *childRec
		if len(joined) == 0 || len(old) > 0 && childOrder(old[0], joined[0]) < 0 {
			next, old = old[0], old[1:]
		} else {
			next, joined = joined[0], joined[1:]
		}
		if !next.dead {
			merged = append(merged, next)
		}
	}
	t.sorted, t.pending, t.ndead = merged, nil, 0
}

// nameIndex returns the name index, building it from the table on first use:
// a directory that is only ever asked data questions (a shard holding
// hundreds of thousands of registrations) never pays for it.
func (t *childTable) nameIndex() *ldap.Store {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index == nil {
		entries := make([]*ldap.Entry, 0, len(t.byKey)+1)
		for _, rec := range t.byKey {
			rec.entry = t.indexEntry(rec)
			entries = append(entries, rec.entry)
		}
		t.index = ldap.NewStore()
		_ = t.index.Adopt(append(entries, t.selfEntry()))
	}
	return t.index
}

// selfEntry is the directory's own service object.
func (t *childTable) selfEntry() *ldap.Entry {
	return ldap.NewEntry(t.suffix.ChildAVA("mds-service", t.name)).
		Add("objectclass", "mdsservice", "service").
		Add("url", t.selfURL).
		Add("mdstype", "giis").
		Add("provider", strconv.Itoa(len(t.byKey)))
}

// indexEntry is the name-index view of one registration (the §3
// "name-serving aggregate directory" behaviour, available from every GIIS).
// The values and the attributes are cut from one array each, which keeps
// the pieces of an entry a VO search filters on together in memory.
func (t *childTable) indexEntry(rec *childRec) *ldap.Entry {
	v := []string{"mdsservice", "service", rec.order, rec.MDSType, rec.VO,
		rec.ViewSuffix.String(), rec.Suffix.String(), "TRUE"}
	attrs := []ldap.Attribute{{Name: "objectclass", Values: v[0:2:2]}, {Name: "url", Values: v[2:3:3]},
		{Name: "mdstype", Values: v[3:4:4]}, {Name: "vo", Values: v[4:5:5]},
		{Name: "suffix", Values: v[5:6:6]}, {Name: "providersuffix", Values: v[6:7:7]},
		// Restored from the durability log after a restart and not yet
		// reconfirmed; clients can weigh such children accordingly.
		{Name: "recovered", Values: v[7:8:8]}}
	if !rec.Recovered {
		attrs = attrs[: len(attrs)-1 : len(attrs)-1]
	}
	return &ldap.Entry{DN: t.suffix.ChildAVA("mds-child", rec.order), Attrs: attrs}
}
