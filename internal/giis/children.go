package giis

import (
	"sort"
	"strconv"
	"sync"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/qcache"
	"mds2/internal/softstate"
)

// childTable is the directory's materialised view of its registrations: one
// record per live, parsable registration, kept in step with the soft-state
// registry through its transition feed (softstate.Journal). A registration
// is parsed once, when its descriptive fields first appear or change; a
// plain refresh only moves its deadline, and an expiry or removal deletes
// its record. Children() snapshots and the name index are read off the
// table, so a search never re-parses or re-sorts the registrations.
//
// JournalRegistry runs under the registry lock. The lock order is registry
// → table → name index, and nothing here calls back into the registry;
// readers first let the registry apply due expiries (Server.childSet), then
// take only the table and index locks.
type childTable struct {
	suffix  ldap.DN
	name    string
	selfURL string
	qc      *qcache.Cache // nil without a query cache

	mu    sync.Mutex
	byKey map[string]*childRec // registry key → record
	// sorted holds the records in Children() order as of the last merge:
	// joins since then wait in pending, and records dropped since then are
	// still in one of the two with dead set (ndead counts them).
	sorted  []*childRec
	pending []*childRec
	ndead   int
	// gen advances with every applied feed batch; snap is the Children()
	// slice built at snapGen, shared by every reader until gen moves.
	gen     uint64
	snap    []Child
	snapGen uint64
	// index is the name index — the self entry plus one mds-child entry per
	// record — built from the table by the first index query and maintained
	// from then on.
	index *ldap.Store
}

// childRec is one registration as the directory uses it.
type childRec struct {
	Child
	key   string        // registry key
	order string        // Child.URL rendered: the Children() sort key
	msg   *grrp.Message // last applied registration; its fields describe the record
	entry *ldap.Entry   // immutable name-index entry; nil until the index exists
	dead  bool
}

func newChildTable(cfg *Config, qc *qcache.Cache) *childTable {
	return &childTable{suffix: cfg.Suffix, name: cfg.Name, selfURL: cfg.SelfURL.String(),
		qc: qc, byKey: map[string]*childRec{}, gen: 1}
}

// JournalRegistry implements softstate.Journal.
func (t *childTable) JournalRegistry(recs []softstate.JournalRecord) {
	var gone []string // service keys of the children that left
	t.mu.Lock()
	members := len(t.byKey)
	for i := range recs {
		it := &recs[i].Item
		if recs[i].Op == softstate.JournalRefresh {
			t.upsert(it)
		} else if rec := t.byKey[it.Key]; rec != nil {
			t.drop(rec)
			if t.qc != nil {
				gone = append(gone, rec.URL.ServiceKey())
			}
		}
	}
	t.gen++
	if t.index != nil && len(t.byKey) != members {
		t.adopt(t.selfEntry())
	}
	if t.ndead > len(t.byKey) {
		// Nobody is asking for snapshots; keep churn from piling up dead records.
		t.merge()
	}
	t.mu.Unlock()
	// A lapsed or withdrawn child's cached hops drop now instead of waiting
	// out their TTL. Joins and refreshes need nothing: keys are per child, so
	// a new child is simply a future miss.
	for _, owner := range gone {
		t.qc.InvalidateOwner(owner)
	}
}

// upsert applies one refresh: a plain one moves the record's times, a first
// or re-described one (re)builds the record.
func (t *childTable) upsert(it *softstate.Item) {
	m, _ := it.Payload.(*grrp.Message)
	rec := t.byKey[it.Key]
	if rec != nil && m != nil && rec.describedBy(m, it.Recovered) {
		rec.msg = m // let go of the superseded message
		rec.ExpiresAt, rec.LastRefresh = it.ExpiresAt, it.LastRefresh
		return
	}
	if rec != nil {
		t.drop(rec)
	}
	if m == nil {
		return
	}
	url, err := ldap.ParseURL(m.ServiceURL)
	if err != nil {
		return
	}
	suffix, err := ldap.ParseDN(m.SuffixDN)
	if err != nil {
		return
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
		ExpiresAt: it.ExpiresAt, LastRefresh: it.LastRefresh, Recovered: it.Recovered,
	}}
	t.byKey[it.Key] = rec
	t.pending = append(t.pending, rec)
	if t.index != nil {
		rec.entry = t.indexEntry(rec)
		t.adopt(rec.entry)
	}
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

// snapshot returns the live child set sorted by service URL, and the table
// generation it was taken at. The slice is shared between callers until the
// table changes.
func (t *childTable) snapshot() ([]Child, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.snapGen != t.gen { // generations start at one, so the first call builds
		t.merge()
		snap := make([]Child, len(t.sorted))
		for i, rec := range t.sorted {
			snap[i] = rec.Child
		}
		t.snap, t.snapGen = snap, t.gen
	}
	return t.snap, t.gen
}

// merge folds the joins and drops since the last merge into sorted: only
// the joins are sorted, then one pass merges them in and leaves the dead out.
func (t *childTable) merge() {
	if len(t.pending) == 0 && t.ndead == 0 {
		return
	}
	less := func(a, b *childRec) bool {
		if a.order != b.order {
			return a.order < b.order
		}
		return a.key < b.key
	}
	sort.Slice(t.pending, func(i, j int) bool { return less(t.pending[i], t.pending[j]) })
	merged := make([]*childRec, 0, len(t.byKey))
	old, joined := t.sorted, t.pending
	for len(old) > 0 || len(joined) > 0 {
		var next *childRec
		if len(joined) == 0 || len(old) > 0 && less(old[0], joined[0]) {
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
func (t *childTable) indexEntry(rec *childRec) *ldap.Entry {
	e := ldap.NewEntry(t.suffix.ChildAVA("mds-child", rec.order)).
		Add("objectclass", "mdsservice", "service").
		Add("url", rec.order).
		Add("mdstype", rec.MDSType).
		Add("vo", rec.VO).
		Add("suffix", rec.ViewSuffix.String()).
		Add("providersuffix", rec.Suffix.String())
	if rec.Recovered {
		// Restored from the durability log after a restart and not yet
		// reconfirmed; clients can weigh such children accordingly.
		e.Add("recovered", "TRUE")
	}
	return e
}
