package giis

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
)

func withQueryCache(ttl time.Duration) func(*Config) {
	return func(c *Config) {
		c.QueryCache = true
		c.QueryCacheTTL = ttl
	}
}

func computerQuery() *ldap.SearchRequest {
	return &ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
}

// TestStalledClientHoldsNoFill: a fill a search leads ends when its child
// answers, whatever the search's own client does. Search A's client stops
// reading while A still waits on a held child; search B joins A's fill of
// that child's key and gets its reply once the child answers, with A's
// client still stalled.
func TestStalledClientHoldsNoFill(t *testing.T) {
	g := newGrid(t)
	g.addChild("h1", "hn=h1, o=grid", 0, hostEntries("hn=h1, o=grid", "h1", "s1", 1)...)
	held := g.addChild("h2", "hn=h2, o=grid", 0, hostEntries("hn=h2, o=grid", "h2", "s1", 1)...)
	d := g.directory("top", preset("chain", StrategyConfig{}), withQueryCache(time.Hour))
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	release := make(chan struct{})
	held.held.Store(&release)
	w := &stallSink{stalled: make(chan struct{}), unstall: make(chan struct{})}
	a := make(chan ldap.Result, 1)
	go func() {
		a <- d.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}, op, w)
	}()
	<-held.arrived
	<-w.stalled // A took h1's reply and cannot send it
	b := make(chan []string, 1)
	go func() {
		got, _ := searchDNs(d, op)
		b <- got
	}()
	for d.QueryCache().Coalesced.Value() == 0 {
		time.Sleep(time.Millisecond) // until B has joined A's fill of h2's key
	}
	held.held.Store(nil)
	close(release)
	select {
	case got := <-b:
		if len(got) != 2 {
			t.Errorf("search B returned %v, want both hosts", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("search B still waits on the fill search A leads, 10s after the child answered")
	}
	close(w.unstall)
	if res := <-a; res.Code != ldap.ResultSuccess {
		t.Errorf("search A: %+v", res)
	}
}

// stallSink is a client that stops reading: its first SendEntry signals
// stalled, then blocks until unstall closes.
type stallSink struct {
	sink
	once             sync.Once
	stalled, unstall chan struct{}
}

func (s *stallSink) SendEntry(e *ldap.Entry, ctls ...ldap.Control) error {
	s.once.Do(func() {
		close(s.stalled)
		<-s.unstall
	})
	return s.sink.SendEntry(e, ctls...)
}

func TestQueryCacheHitSkipsChain(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(time.Minute))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)

	first, res := r.search(computerQuery())
	if res.Code != ldap.ResultSuccess || len(first) != 2 {
		t.Fatalf("prime: %d entries, res %+v", len(first), res)
	}
	chained := r.giis.ChainedOps.Value()
	if chained == 0 {
		t.Fatal("prime query did not chain")
	}

	second, res := r.search(computerQuery())
	if res.Code != ldap.ResultSuccess || len(second) != 2 {
		t.Fatalf("hit: %d entries, res %+v", len(second), res)
	}
	if got := r.giis.ChainedOps.Value(); got != chained {
		t.Fatalf("identical query re-chained: %d ops, want %d", got, chained)
	}

	// Normalization: a semantically equal query (case-folded filter) shares
	// the key and also hits.
	eq := computerQuery()
	eq.Filter = ldap.MustParseFilter("(ObjectClass=COMPUTER)")
	if _, res := r.search(eq); res.Code != ldap.ResultSuccess {
		t.Fatalf("equivalent query failed: %+v", res)
	}
	if got := r.giis.ChainedOps.Value(); got != chained {
		t.Fatalf("equivalent query re-chained: %d ops, want %d", got, chained)
	}
	if s := r.giis.QueryCache().Stats(); s.Hits == 0 {
		t.Fatalf("cache stats show no hits: %+v", s)
	}
}

// TestQueryCacheKeepsSelectionsApart is the regression test for a key
// collision: one attribute named "hn,objectclass" (a selector may be any
// string) and the two attributes hn and objectclass used to render one key,
// so a query for the two was answered with the entries cached for the one —
// which carry no attributes at all.
func TestQueryCacheKeepsSelectionsApart(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(time.Minute))
	r.addHost("hostA", 1)

	odd := computerQuery()
	odd.Attributes = []string{"hn,objectclass"}
	entries, res := r.search(odd)
	if res.Code != ldap.ResultSuccess || len(entries) != 1 || len(entries[0].Attributes()) != 0 {
		t.Fatalf("prime: %v, res %+v", entries, res)
	}
	two := computerQuery()
	two.Attributes = []string{"hn", "objectclass"}
	entries, res = r.search(two)
	if res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("second selection: %d entries, res %+v", len(entries), res)
	}
	if hn := entries[0].First("hn"); hn != "hostA" || !entries[0].IsA("computer") {
		t.Fatalf("second selection answered from the first one's cached entries: %v", entries[0])
	}
}

// TestPersistentSearchBypassesQueryCache is the regression test for the
// subscriber bug: a persistent-search request answered from the result
// cache would silently freeze the subscription at the cached snapshot, so
// those requests must always chain to the authoritative provider even when
// an identical plain query was just cached.
func TestPersistentSearchBypassesQueryCache(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(time.Minute))
	r.addHost("hostA", 1)

	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("prime failed: %+v", res)
	}
	chained := r.giis.ChainedOps.Value()

	w := &sink{}
	psReq := &ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{},
		Controls: []ldap.Control{ldap.NewPersistentSearchControl(
			ldap.PersistentSearch{ChangeTypes: ldap.ChangeAll})}}
	if res := r.giis.Search(psReq, computerQuery(), w); res.Code != ldap.ResultSuccess {
		t.Fatalf("persistent search failed: %+v", res)
	}
	if got := r.giis.ChainedOps.Value(); got == chained {
		t.Fatal("persistent search was answered from the query cache instead of chaining")
	}
}

// TestQueryCacheBoundedByChildSoftState pins the two-tier freshness rule:
// even with a long cache TTL, a cached result expires when the child
// registration that produced it would have — a refresh that extends the
// registration does not resurrect results cached under the old deadline.
func TestQueryCacheBoundedByChildSoftState(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(time.Hour))
	r.addHost("hostA", 1)

	// Shrink hostA's registration to 30s from now.
	reingest := func(ttl time.Duration) {
		now := r.clock.Now()
		if !r.giis.Ingest(&grrp.Message{
			Type: grrp.TypeRegister, ServiceURL: "sim://hostA-node:389",
			MDSType: "gris", SuffixDN: "hn=hostA, o=center1",
			IssuedAt: now, ValidUntil: now.Add(ttl),
		}) {
			t.Fatal("re-registration refused")
		}
	}
	reingest(30 * time.Second)

	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("prime failed: %+v", res)
	}
	chained := r.giis.ChainedOps.Value()

	// Still inside the registration window: served from cache.
	r.clock.Advance(10 * time.Second)
	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("in-window query failed: %+v", res)
	}
	if got := r.giis.ChainedOps.Value(); got != chained {
		t.Fatalf("in-window query re-chained: %d ops, want %d", got, chained)
	}

	// Extend the registration, then cross the ORIGINAL deadline. The child
	// is alive, but the cached result was produced under the old
	// registration and must not be served past it.
	reingest(time.Hour)
	r.clock.Advance(25 * time.Second)
	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("post-deadline query failed: %+v", res)
	}
	if got := r.giis.ChainedOps.Value(); got == chained {
		t.Fatal("result cached under the lapsed registration was served past its soft-state bound")
	}
}

// TestRegistryExpiryInvalidatesQueryCache pins the early-invalidation
// path: when a child's registration is withdrawn or expires, its cached
// results drop with it instead of lingering until their TTL — inside the
// registry pass that applied the change, so a storm of other registrations
// around it cannot crowd it out.
func TestRegistryExpiryInvalidatesQueryCache(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}), withQueryCache(24*time.Hour))
	r.addHost("hostA", 1) // registrations valid for one hour
	r.addHost("hostB", 2)

	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("prime failed: %+v", res)
	}
	if n := r.giis.QueryCache().Len(); n != 2 {
		t.Fatalf("prime query left %d keys in the cache, want one per child", n)
	}

	storm := func() {
		now := r.clock.Now()
		msgs := make([]*grrp.Message, 1000)
		for i := range msgs {
			msgs[i] = &grrp.Message{Type: grrp.TypeRegister, MDSType: "gris",
				ServiceURL: fmt.Sprintf("sim://p%d-node:389", i),
				SuffixDN:   fmt.Sprintf("hn=p%d, o=center2", i),
				IssuedAt:   now, ValidUntil: now.Add(3 * time.Hour)}
		}
		if n := r.giis.IngestBatch(msgs); n != len(msgs) {
			t.Fatalf("storm: %d of %d registrations accepted", n, len(msgs))
		}
	}
	// A withdrawal right behind a storm: hostB's key is gone when Remove
	// returns, hostA's (still valid by its own TTL) stays.
	storm()
	r.giis.Receiver().Registry.Remove("sim://hostB-node:389")
	if n := r.giis.QueryCache().Len(); n != 1 {
		t.Fatalf("%d keys cached after hostB was withdrawn, want hostA's only", n)
	}
	// Cross hostA's deadline and refresh the storm: whichever of the sweep
	// timer and this batch notices the lapse, it has been applied — keys
	// dropped — by the time the batch returns.
	r.clock.Advance(time.Hour + time.Second)
	storm()
	if s := r.giis.QueryCache().Stats(); r.giis.QueryCache().Len() != 0 || s.Invalidated != 2 {
		t.Fatalf("expired child's cached results not invalidated: %d keys, stats %+v",
			r.giis.QueryCache().Len(), s)
	}
}

// TestCachedIndexSingleFetchPerChild verifies the rebased CachedIndex
// still fetches each child's subtree once per TTL window and serves
// queries from the index in between.
func TestCachedIndexSingleFetchPerChild(t *testing.T) {
	r := newRig(t, preset("cache", StrategyConfig{CacheTTL: time.Minute}))
	r.addHost("hostA", 1)

	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("prime failed: %+v", res)
	}
	chained := r.giis.ChainedOps.Value()
	for i := 0; i < 3; i++ {
		if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
			t.Fatalf("indexed query failed: %+v", res)
		}
	}
	if got := r.giis.ChainedOps.Value(); got != chained {
		t.Fatalf("indexed queries re-fetched the child: %d ops, want %d", got, chained)
	}
	r.clock.Advance(time.Minute)
	if _, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess {
		t.Fatalf("post-TTL query failed: %+v", res)
	}
	if got := r.giis.ChainedOps.Value(); got == chained {
		t.Fatal("index never refreshed after its TTL")
	}
}
