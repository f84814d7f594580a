package giis

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/grip"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/shard"
	"mds2/internal/simnet"
	"mds2/internal/softstate"
)

// staticChild is an information provider serving a fixed entry set. Scope,
// filter and size limit are evaluated the way a real server would, every
// search is counted, and an optional delay makes concurrent searches overlap.
type staticChild struct {
	ldap.BaseHandler
	entries  []*ldap.Entry // in SortEntries order
	delay    time.Duration
	searches atomic.Int64
	// held, while set, holds every search until the channel closes;
	// arrived hears of each search it holds.
	held    atomic.Pointer[chan struct{}]
	arrived chan struct{}
}

func (h *staticChild) Search(_ *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	h.searches.Add(1)
	if held := h.held.Load(); held != nil {
		h.arrived <- struct{}{}
		<-*held
	}
	time.Sleep(h.delay)
	base, err := ldap.ParseDN(op.BaseDN)
	if err != nil {
		return ldap.Result{Code: ldap.ResultProtocolError, Message: err.Error()}
	}
	sent := int64(0)
	for _, e := range h.entries {
		if !e.DN.WithinScope(base, op.Scope) || (op.Filter != nil && !op.Filter.Matches(e)) {
			continue
		}
		if op.SizeLimit > 0 && sent == op.SizeLimit {
			return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
		}
		sent++
		if err := w.SendEntry(e.Select(op.Attributes)); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// grid is one simulated network of static children under "o=grid" that any
// number of directories — one per strategy under test — all register.
type grid struct {
	t        *testing.T
	clock    *softstate.FakeClock
	network  *simnet.Network
	children map[string]*staticChild // by name
	suffixes map[string]ldap.DN

	mu    sync.Mutex
	dials map[string]int // by dialled address
}

func newGrid(t *testing.T) *grid {
	return &grid{t: t, clock: softstate.NewFakeClock(), network: simnet.New(1),
		children: map[string]*staticChild{}, suffixes: map[string]ldap.DN{}, dials: map[string]int{}}
}

func (g *grid) addChild(name, suffix string, delay time.Duration, entries ...*ldap.Entry) *staticChild {
	g.t.Helper()
	ldap.SortEntries(entries)
	child := &staticChild{entries: entries, delay: delay, arrived: make(chan struct{}, 16)}
	srv := ldap.NewServer(child)
	l, err := g.network.Listen(name+"-node", "389")
	if err != nil {
		g.t.Fatal(err)
	}
	go srv.Serve(l)
	g.t.Cleanup(func() { srv.Close() })
	g.children[name] = child
	g.suffixes[name] = ldap.MustParseDN(suffix)
	return child
}

func (g *grid) dialFrom(node string) Dialer {
	return func(url ldap.URL) (*ldap.Client, error) {
		g.mu.Lock()
		g.dials[url.Address()]++
		g.mu.Unlock()
		conn, err := g.network.Dial(node, url.Address())
		if err != nil {
			return nil, err
		}
		return ldap.NewClient(conn), nil
	}
}

func (g *grid) dialsTo(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dials[name+"-node:389"]
}

// directory starts a GIIS on its own node, serves it on the network and
// offers it every child's registration.
func (g *grid) directory(node string, strategy *Strategy, mods ...func(*Config)) *Server {
	g.t.Helper()
	cfg := Config{
		Name:     "giis." + node,
		Suffix:   ldap.MustParseDN("o=grid"),
		SelfURL:  ldap.MustParseURL("sim://" + node + "-node:389"),
		Clock:    g.clock,
		Strategy: strategy,
		Dial:     g.dialFrom(node + "-node"),
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	s := New(cfg)
	g.t.Cleanup(s.Close)
	srv := ldap.NewServer(s)
	l, err := g.network.Listen(node+"-node", "389")
	if err != nil {
		g.t.Fatal(err)
	}
	go srv.Serve(l)
	g.t.Cleanup(func() { srv.Close() })
	now := g.clock.Now()
	for name, suffix := range g.suffixes {
		s.Ingest(&grrp.Message{ // a sharded directory refuses what it does not own
			Type:       grrp.TypeRegister,
			ServiceURL: "sim://" + name + "-node:389",
			MDSType:    "gris",
			SuffixDN:   suffix.String(),
			IssuedAt:   now,
			ValidUntil: now.Add(time.Hour),
		})
	}
	return s
}

func searchDNs(s *Server, op *ldap.SearchRequest) ([]string, ldap.Result) {
	w := &sink{}
	res := s.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}, op, w)
	return dnsOf(w.entries), res
}

func dnsOf(entries []*ldap.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.DN.String()
	}
	return out
}

// hostEntries is a host object plus one device below it.
func hostEntries(suffix, hn, site string, cpus int) []*ldap.Entry {
	dn := ldap.MustParseDN(suffix)
	return []*ldap.Entry{
		ldap.NewEntry(dn).Add("objectclass", "computer").Add("hn", hn).
			Add("o", site).Add("cpucount", fmt.Sprint(cpus)),
		ldap.NewEntry(dn.ChildAVA("dev", "cpu0")).Add("objectclass", "device").
			Add("o", site).Add("cpucount", fmt.Sprint(cpus)),
	}
}

// TestStrategiesAgree: every strategy is the same directory seen through a
// different child selector, so on one grid — disjoint sites, one provider
// nested inside another's namespace, one provider partitioned away — they
// return the same entries for every region, filter and size limit, and flag
// the result partial exactly when the partitioned provider is in the region.
func TestStrategiesAgree(t *testing.T) {
	g := newGrid(t)
	for _, h := range []struct {
		name, site string
		cpus       int
	}{{"h1", "siteA", 4}, {"h2", "siteA", 8}, {"h3", "siteB", 4}, {"h4", "siteB", 8}, {"c9", "siteC", 8}} {
		suffix := fmt.Sprintf("hn=%s, o=%s, o=grid", h.name, h.site)
		g.addChild(h.name, suffix, 0, hostEntries(suffix, h.name, h.site, h.cpus)...)
	}
	// sitec serves the organization object and two hosts of its own; c9 above
	// is a separate provider nested inside its namespace.
	sitec := []*ldap.Entry{ldap.NewEntry(ldap.MustParseDN("o=siteC, o=grid")).
		Add("objectclass", "organization").Add("o", "siteC")}
	sitec = append(sitec, hostEntries("hn=c1, o=siteC, o=grid", "c1", "siteC", 4)...)
	sitec = append(sitec, hostEntries("hn=c2, o=siteC, o=grid", "c2", "siteC", 2)...)
	g.addChild("sitec", "o=siteC, o=grid", 0, sitec...)
	const down = "h3"
	g.network.SetPartitions(nil, []string{down + "-node"})

	members := make([]shard.Member, 3)
	for i := range members {
		id := fmt.Sprintf("s%d", i)
		members[i] = shard.Member{ID: id, URL: ldap.MustParseURL("sim://" + id + "-node:389")}
	}
	ring := shard.NewRing(members, 0)
	shards := map[string]*Server{}
	for _, m := range members {
		shards[m.ID] = g.directory(m.ID, preset("sharded", StrategyConfig{Ring: ringSpec(members), ShardID: m.ID, Replicas: 2, ShardMode: "proxy"}))
	}
	// Partial results surface where the unreachable hop is, so the sharded
	// view is taken from a shard that owns the partitioned provider.
	owner := shard.NewPlanner(ring, "", 2, ldap.MustParseDN("o=grid"), nil).
		Owners(g.suffixes[down].String())[0].ID

	g.directory("referral", preset("referral", StrategyConfig{}))
	dial := func(url ldap.URL) (*grip.Client, error) {
		conn, err := g.network.Dial("client-node", url.Address())
		if err != nil {
			return nil, err
		}
		return grip.NewClient(conn), nil
	}
	client, err := dial(ldap.MustParseURL("sim://referral-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	views := []struct {
		name string
		s    *Server
	}{
		{"chaining", g.directory("chain", preset("chain", StrategyConfig{}))},
		{"bloom-routed", g.directory("bloom", preset("bloom", StrategyConfig{CacheTTL: time.Hour}))},
		{"cached-index", g.directory("cache", preset("cache", StrategyConfig{CacheTTL: time.Hour}))},
		{"sharded", shards[owner]},
	}

	var reachable []*ldap.Entry
	for name, child := range g.children {
		if name != down {
			reachable = append(reachable, child.entries...)
		}
	}
	ldap.SortEntries(reachable)
	downChild := Child{Suffix: g.suffixes[down], ViewSuffix: g.suffixes[down]}

	// The root is above the suffix and o=grid is the suffix: a search there
	// must not see the directories' monitors, which the last filter (it
	// leaves out only the name index and the root DSE) would match.
	bases := []string{"", "o=grid", "o=siteA, o=grid", "o=siteB, o=grid", "o=siteC, o=grid",
		"hn=h1, o=siteA, o=grid", "hn=h3, o=siteB, o=grid", "hn=c9, o=siteC, o=grid",
		"dev=cpu0, hn=h2, o=siteA, o=grid"}
	scopes := []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeSingleLevel, ldap.ScopeWholeSubtree}
	filters := []string{"(objectclass=computer)", "(&(objectclass=computer)(o=siteA))",
		"(cpucount=8)", "(|(cpucount=4)(cpucount=2))", "(cpucount=*)", "(!(|(objectclass=mdsservice)(objectclass=top)))"}
	for _, baseStr := range bases {
		base := ldap.MustParseDN(baseStr)
		for _, scope := range scopes {
			_, _, downInRegion := translateRegion(base, scope, &downChild)
			for _, filterStr := range filters {
				filter := ldap.MustParseFilter(filterStr)
				var want []string
				for _, e := range reachable {
					if e.DN.WithinScope(base, scope) && filter.Matches(e) {
						want = append(want, e.DN.String())
					}
				}
				for _, limit := range []int64{0, 1, 3} {
					// A size limit keeps the first entries in SortEntries order
					// and is reported whenever it cut something off.
					wantDNs, wantCode := want, ldap.ResultSuccess
					if limit > 0 && int64(len(want)) > limit {
						wantDNs, wantCode = want[:limit], ldap.ResultSizeLimitExceeded
					}
					label := fmt.Sprintf("base=%q scope=%d filter=%s limit=%d", baseStr, scope, filterStr, limit)
					for _, v := range views {
						got, res := searchDNs(v.s, &ldap.SearchRequest{BaseDN: baseStr, Scope: scope,
							Filter: filter, SizeLimit: limit})
						slices.Sort(got)
						if res.Code != wantCode || !slices.Equal(got, sortedCopy(wantDNs)) {
							t.Errorf("%s %s:\n got %v %v\nwant %v %v", v.name, label, res.Code, got, wantCode, wantDNs)
						}
						if partial := res.Message != ""; res.Code == ldap.ResultSuccess && partial != downInRegion {
							t.Errorf("%s %s: partial = %v (%q), partitioned child in region = %v",
								v.name, label, partial, res.Message, downInRegion)
						}
					}
					if limit != 0 {
						continue // the referral-following client searches unlimited
					}
					// A referral carries the scope translation gave it: a one-level
					// search at o=grid reaches sitec as a base search at its suffix,
					// never as a one-level search there (its hosts).
					entries, err := client.SearchFollowingReferrals(base, scope, filterStr, dial, nil, 0)
					if err != nil {
						t.Errorf("referral %s: %v", label, err)
					} else if got := dnsOf(entries); !slices.Equal(sortedCopy(got), sortedCopy(want)) {
						t.Errorf("referral %s:\n got %v\nwant %v", label, got, want)
					}
				}
			}
		}
	}
}

func sortedCopy(in []string) []string {
	out := slices.Clone(in)
	slices.Sort(out)
	return out
}

// TestBloomSummaryFilledOncePerTTL: a summary is fetched once per child per
// TTL however many searches arrive cold together, a child that is down is
// not re-dialled for its summary until the TTL passes, and the fetch stays
// out of the query cache.
func TestBloomSummaryFilledOncePerTTL(t *testing.T) {
	const (
		children = 8
		searches = 16
		down     = "h007"
	)
	g := newGrid(t)
	for i := 0; i < children; i++ {
		name := fmt.Sprintf("h%03d", i)
		suffix := "hn=" + name + ", o=site, o=grid"
		// The delay keeps the first fetch in flight while the rest arrive.
		g.addChild(name, suffix, 5*time.Millisecond, hostEntries(suffix, name, "site", 4)...)
	}
	g.network.SetPartitions(nil, []string{down + "-node"})
	dir := g.directory("bloom", preset("bloom", StrategyConfig{CacheTTL: 10 * time.Minute}))
	query := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(hn=h000)")}

	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, res := searchDNs(dir, query); res.Code != ldap.ResultSuccess || len(got) != 1 {
				t.Errorf("cold search: %v, res %+v", got, res)
			}
		}()
	}
	wg.Wait()
	for name, child := range g.children {
		switch n := child.searches.Load(); {
		case name == "h000" && n < 2:
			t.Errorf("%s saw %d searches, want its summary fetch and the query", name, n)
		case name != "h000" && name != down && n != 1:
			t.Errorf("%s saw %d searches under %d cold queries, want one summary fetch", name, n, searches)
		}
	}
	// Summaries are their own cache: behind a query cache, the only key a
	// cold search leaves is the query that reached h000. (The down child's
	// hop failed; failures are not kept.)
	cached := g.directory("bloomqc", preset("bloom", StrategyConfig{CacheTTL: 10 * time.Minute}), withQueryCache(time.Hour))
	searchDNs(cached, query)
	if n := cached.QueryCache().Len(); n != 1 {
		t.Errorf("query cache holds %d keys after summary fills, want 1", n)
	}
	// Without a summary the down child fails open, so every search still
	// dials it once to chain — but its summary is not retried.
	before := g.dialsTo(down)
	for i := 0; i < 3; i++ {
		searchDNs(dir, query)
	}
	if got := g.dialsTo(down) - before; got != 3 {
		t.Errorf("down child dialled %d times over 3 searches, want 3 (one chain each, no summary retry)", got)
	}
	// Past the TTL the summary is tried again.
	g.clock.Advance(11 * time.Minute)
	searchDNs(dir, query)
	if got := g.dialsTo(down) - before; got != 3+2 {
		t.Errorf("down child dialled %d times once the TTL passed, want %d", got, 3+2)
	}
}

// TestBloomSummaryNeverHidesAMatch is the soundness property of the Bloom
// pre-filter: whatever an equality filter matches under ldap's case folding,
// the summary built from the matching entry must admit — including the
// folds ASCII lowering and strings.ToLower get wrong (É/é, ſ/s, K/k, İ) and
// invalid UTF-8, which EqualFold compares as U+FFFD.
func TestBloomSummaryNeverHidesAMatch(t *testing.T) {
	classes := [][]string{
		{"École", "ÉCOLE", "école"},
		{"masse", "maſſe", "MASSE"},
		{"kelvin", "\u212aelvin", "KELVIN"},
		{"İzmir", "İZMIR"},
		{"\xffab", "\xfeAB"},
		{"plain", "PLAIN", "Plain"},
	}
	rng := rand.New(rand.NewSource(14))
	pick := func() string {
		class := classes[rng.Intn(len(classes))]
		return class[rng.Intn(len(class))]
	}
	g := newGrid(t)
	var all []*ldap.Entry
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("h%03d", i)
		suffix := "hn=" + name + ", o=site, o=grid"
		e := ldap.NewEntry(ldap.MustParseDN(suffix)).Add("objectclass", "computer").
			Add("Site", pick()).Add("tag", pick())
		all = append(all, e)
		g.addChild(name, suffix, 0, e)
	}
	dir := g.directory("bloom", preset("bloom", StrategyConfig{CacheTTL: time.Hour}))
	for q := 0; q < 200; q++ {
		filter := ldap.Eq("SITE", pick())
		if q%2 == 1 {
			filter = ldap.And(filter, ldap.Eq("Tag", pick()))
		}
		var want []string
		for _, e := range all {
			if filter.Matches(e) {
				want = append(want, e.DN.String())
			}
		}
		got, res := searchDNs(dir, &ldap.SearchRequest{BaseDN: "o=grid",
			Scope: ldap.ScopeWholeSubtree, Filter: filter})
		if res.Code != ldap.ResultSuccess || !slices.Equal(sortedCopy(got), sortedCopy(want)) {
			t.Fatalf("filter %q: got %v (res %+v), want %v", filter, got, res, want)
		}
	}
}

// TestUnlimitedSearchStreamsPerChild pins how the engine orders results for
// every chaining strategy: without a size limit each child's reply streams
// as it arrives, sorted within the child; a size limit decides which entries
// survive, so the replies sort globally first. (BloomRouted used to sort
// globally either way.)
func TestUnlimitedSearchStreamsPerChild(t *testing.T) {
	for _, tc := range chainingStrategies {
		t.Run(tc.name, func(t *testing.T) {
			g := newGrid(t)
			slow, fast := "hn=a, o=site, o=grid", "hn=b, o=site, o=grid"
			g.addChild("a", slow, 40*time.Millisecond, hostEntries(slow, "a", "site", 4)...)
			g.addChild("b", fast, 0, hostEntries(fast, "b", "site", 4)...)
			// The solo ring of chainingStrategies names giis-node as its member.
			dir := g.directory("giis", tc.build(Fanout{}))
			query := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter("(cpucount=4)")}

			streamed := []string{fast, "dev=cpu0, " + fast, slow, "dev=cpu0, " + slow}
			if got, _ := searchDNs(dir, query); !slices.Equal(got, streamed) {
				t.Errorf("unlimited search returned %s, want arrival order %s",
					strings.Join(got, " | "), strings.Join(streamed, " | "))
			}
			query.SizeLimit = 10
			sorted := []string{slow, fast, "dev=cpu0, " + slow, "dev=cpu0, " + fast} // parents first
			if got, _ := searchDNs(dir, query); !slices.Equal(got, sorted) {
				t.Errorf("limited search returned %s, want DN order %s",
					strings.Join(got, " | "), strings.Join(sorted, " | "))
			}
		})
	}
}
