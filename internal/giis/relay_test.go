package giis

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/shard"
)

// The reference oracle: the hop loop as it was before child result entries
// were relayed as wire bytes. Every hop's reply is turned into decoded
// entries of the oracle's own (Clone — a search result is a snapshot), the
// view graft rewrites each entry's name in place, and Select deep-clones it
// on the way out. A relaying directory must show a client exactly what this
// shows.

// decodeSearch answers op over every registered child in the region.
func (s *Server) decodeSearch(op *ldap.SearchRequest) (entries []*ldap.Entry, code ldap.ResultCode, partial bool) {
	base := ldap.MustParseDN(op.BaseDN)
	limit := op.SizeLimit
	if limit > 0 {
		limit++
	}
	var all []*ldap.Entry
	seen := map[string]bool{}
	for _, child := range s.Children() {
		childBase, childScope, ok := translateRegion(base, op.Scope, &child)
		if !ok {
			continue
		}
		pe, err := s.acquire(child.service(), child.URL)
		if err != nil {
			partial = true
			continue
		}
		res, err := pe.c.SearchWith(&ldap.SearchRequest{BaseDN: childBase.String(), Scope: childScope,
			Filter: op.Filter, Attributes: op.Attributes, SizeLimit: limit}, nil)
		if err != nil && !(ldap.IsCode(err, ldap.ResultSizeLimitExceeded) && res != nil) {
			if !ldap.IsCode(err, ldap.ResultNoSuchObject) {
				s.evict(pe)
				partial = true
			}
			s.release(pe)
			continue
		}
		s.release(pe)
		for _, e := range res.Entries {
			e = e.Clone()
			if rel, ok := e.DN.RelativeTo(child.Suffix); ok {
				e.DN = rel.Under(child.ViewSuffix)
			}
			if k := e.DN.Normalize(); !seen[k] {
				seen[k] = true
				all = append(all, e)
			}
		}
	}
	ldap.SortEntries(all)
	if op.SizeLimit > 0 && int64(len(all)) > op.SizeLimit {
		all, code = all[:op.SizeLimit], ldap.ResultSizeLimitExceeded
	}
	for _, e := range all {
		entries = append(entries, e.Select(op.Attributes))
	}
	return entries, code, partial
}

// overTheWire is what a client decodes of e.
func overTheWire(t *testing.T, e *ldap.Entry) *ldap.Entry {
	t.Helper()
	m, err := ldap.ScanMessage((&ldap.Message{ID: 1, Op: &ldap.SearchResultEntry{Entry: e}}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	return m.Op.(*ldap.SearchResultEntry).Entry
}

func (g *grid) client(node string) *ldap.Client {
	g.t.Helper()
	conn, err := g.network.Dial("client-node", node+"-node:389")
	if err != nil {
		g.t.Fatal(err)
	}
	c := ldap.NewClient(conn)
	g.t.Cleanup(func() { c.Close() })
	return c
}

// TestRelayEqualsDecode: over real connections, what a client sees from a
// directory that relays wire-backed entries — through each of the four data
// strategies, and through the query cache on both its fill and its hit — is
// what the decode-path oracle shows: the same entries attribute for
// attribute, the same result code, partial exactly when it is. The grid has
// a provider grafted into the view from a foreign namespace, one nested
// inside another's, one partitioned away, and a sharded ring whose replicas
// answer everything twice.
func TestRelayEqualsDecode(t *testing.T) {
	g := newGrid(t)
	for _, h := range []struct {
		name, site string
		cpus       int
	}{{"h1", "siteA", 4}, {"h2", "siteA", 8}, {"h3", "siteB", 4}, {"h4", "siteB", 8}, {"c9", "siteC", 8}} {
		suffix := fmt.Sprintf("hn=%s, o=%s, o=grid", h.name, h.site)
		g.addChild(h.name, suffix, 0, hostEntries(suffix, h.name, h.site, h.cpus)...)
	}
	sitec := []*ldap.Entry{ldap.NewEntry(ldap.MustParseDN("o=siteC, o=grid")).
		Add("objectclass", "organization").Add("o", "siteC")}
	sitec = append(sitec, hostEntries("hn=c1, o=siteC, o=grid", "c1", "siteC", 4)...)
	g.addChild("sitec", "o=siteC, o=grid", 0, sitec...)
	// A provider outside o=grid: it appears under "…, o=elsewhere, o=grid"
	// in every directory's view, so its entries change name at the hop.
	g.addChild("f1", "hn=f1, o=elsewhere", 0, hostEntries("hn=f1, o=elsewhere", "f1", "elsewhere", 8)...)
	g.network.SetPartitions(nil, []string{"h3-node"})

	members := make([]shard.Member, 3)
	for i := range members {
		id := fmt.Sprintf("s%d", i)
		members[i] = shard.Member{ID: id, URL: ldap.MustParseURL("sim://" + id + "-node:389")}
	}
	ring := shard.NewRing(members, 0)
	for _, m := range members {
		g.directory(m.ID, preset("sharded", StrategyConfig{Ring: ringSpec(members), ShardID: m.ID, Replicas: 2, ShardMode: "proxy"}))
	}
	owner := shard.NewPlanner(ring, "", 2, ldap.MustParseDN("o=grid"), nil).
		Owners(g.suffixes["h3"].String())[0].ID
	g.directory("chain", preset("chain", StrategyConfig{}))
	g.directory("bloom", preset("bloom", StrategyConfig{CacheTTL: time.Hour}))
	g.directory("cache", preset("cache", StrategyConfig{CacheTTL: time.Hour}))
	g.directory("qc", preset("chain", StrategyConfig{}), withQueryCache(time.Hour))
	views := []struct{ name, node string }{
		{"chaining", "chain"}, {"bloom-routed", "bloom"}, {"cached-index", "cache"}, {"sharded", owner},
		{"chaining+qcache fill", "qc"}, {"chaining+qcache hit", "qc"},
	}
	clients := map[string]*ldap.Client{}
	for _, v := range views {
		if clients[v.node] == nil {
			clients[v.node] = g.client(v.node)
		}
	}
	oracle := g.directory("oracle", preset("chain", StrategyConfig{}))

	bases := []string{"o=grid", "o=siteA, o=grid", "o=siteB, o=grid", "o=siteC, o=grid",
		"hn=h1, o=siteA, o=grid", "o=elsewhere, o=grid", "dev=cpu0, hn=f1, o=elsewhere, o=grid"}
	scopes := []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeSingleLevel, ldap.ScopeWholeSubtree}
	filters := []string{"(objectclass=computer)", "(cpucount=8)", "(|(cpucount=4)(objectclass=organization))"}
	selections := [][]string{
		nil,                   // everything: relayed untouched
		{"cpucount", "hn"},    // already what the hop chains: relayed untouched
		{"hn", "cpucount"},    // differs from the chained (sorted) selection: projected at every hop
		{"HN", "O", "nosuch"}, // differs by case
		{"*", "hn"},           // everything, the long way
	}
	for _, baseStr := range bases {
		for _, scope := range scopes {
			for _, filterStr := range filters {
				for _, limit := range []int64{0, 1, 3} {
					for _, attrs := range selections {
						op := &ldap.SearchRequest{BaseDN: baseStr, Scope: scope,
							Filter: ldap.MustParseFilter(filterStr), SizeLimit: limit, Attributes: attrs}
						label := fmt.Sprintf("base=%q scope=%d filter=%s limit=%d attrs=%v", baseStr, scope, filterStr, limit, attrs)
						want, wantCode, wantPartial := oracle.decodeSearch(op)
						for i, e := range want {
							want[i] = overTheWire(t, e)
						}
						ldap.SortEntries(want)
						for _, v := range views {
							res, err := clients[v.node].SearchWith(op, nil)
							if res == nil {
								t.Fatalf("%s %s: %v", v.name, label, err)
							}
							got := res.Entries
							ldap.SortEntries(got)
							if res.Result.Code != wantCode || len(got) != len(want) {
								t.Errorf("%s %s:\n got %v %v\nwant %v %v", v.name, label, res.Result.Code, got, wantCode, want)
								continue
							}
							for i := range got {
								if !reflect.DeepEqual(got[i].DN, want[i].DN) || !reflect.DeepEqual(got[i].Attributes(), want[i].Attributes()) {
									t.Errorf("%s %s: entry %d\n got %s\nwant %s", v.name, label, i, got[i], want[i])
								}
							}
							if partial := res.Result.Message != ""; wantCode == ldap.ResultSuccess && partial != wantPartial {
								t.Errorf("%s %s: partial = %v (%q), oracle %v", v.name, label, partial, res.Result.Message, wantPartial)
							}
						}
					}
				}
			}
		}
	}
}

// hierarchy is a real-TCP discovery tree: leaves GRIS of hostsPerLeaf hosts
// each, split evenly under mids chaining GIIS, under one top GIIS.
type hierarchy struct {
	top    *Server
	addr   string // of top
	mids   []*Server
	client *ldap.Client
	leaves []net.Listener
}

func newHierarchy(tb testing.TB, mids, leaves, hostsPerLeaf int, topMods ...func(*Config)) *hierarchy {
	tb.Helper()
	suffix := ldap.MustParseDN("o=grid")
	serve := func(h ldap.Handler) net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		srv := ldap.NewServer(h)
		go srv.Serve(l)
		tb.Cleanup(func() { srv.Close() })
		return l
	}
	register := func(at *Server, l net.Listener, kind string, suffix ldap.DN) {
		now := time.Now()
		if !at.Ingest(&grrp.Message{Type: grrp.TypeRegister, ServiceURL: "ldap://" + l.Addr().String(),
			MDSType: kind, SuffixDN: suffix.String(), IssuedAt: now, ValidUntil: now.Add(time.Hour)}) {
			tb.Fatalf("registration of %s refused", l.Addr())
		}
	}
	directory := func(name string, mods ...func(*Config)) (*Server, net.Listener) {
		cfg := Config{Name: name, Suffix: suffix}
		for _, mod := range mods {
			mod(&cfg)
		}
		s := New(cfg)
		tb.Cleanup(s.Close)
		return s, serve(s)
	}
	h := &hierarchy{}
	top, topL := directory("giis.top", topMods...)
	h.top = top
	host := 0
	for m := 0; m < mids; m++ {
		mid, midL := directory(fmt.Sprintf("giis.mid%d", m))
		h.mids = append(h.mids, mid)
		register(top, midL, "giis", suffix)
		for leaf := m * leaves / mids; leaf < (m+1)*leaves/mids; leaf++ {
			ou := suffix.ChildAVA("ou", fmt.Sprintf("s%d", leaf))
			var entries []*ldap.Entry
			for i := 0; i < hostsPerLeaf; i++ {
				name := fmt.Sprintf("h%d", host)
				host++
				entries = append(entries, ldap.NewEntry(ou.ChildAVA("hn", name)).
					Add("objectclass", "computer").Add("hn", name).Add("system", "linux redhat").
					Add("cpucount", "4").Add("memsize", "2048").Add("load5", "1.7").Add("rack", "r3"))
			}
			g := gris.New(gris.Config{Suffix: ou})
			g.Register(corpus{suffix: ou, entries: entries})
			l := serve(g)
			h.leaves = append(h.leaves, l)
			register(mid, l, "gris", ou)
		}
	}
	h.addr = topL.Addr().String()
	c, err := ldap.Dial(h.addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	h.client = c
	return h
}

// corpus is a GRIS backend serving a fixed, cached entry set.
type corpus struct {
	suffix  ldap.DN
	entries []*ldap.Entry
}

func (corpus) Name() string                                 { return "corpus" }
func (c corpus) Suffix() ldap.DN                            { return c.suffix }
func (corpus) Attributes() []string                         { return nil }
func (corpus) CacheTTL() time.Duration                      { return time.Hour }
func (c corpus) Entries(*gris.Query) ([]*ldap.Entry, error) { return c.entries, nil }

func rackQuery(n int) *ldap.SearchRequest {
	return &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter(fmt.Sprintf("(&(objectclass=computer)(rack=r3)(!(jobid=%d)))", n))}
}

// TestPartialFlagCrossesLevels: a child's own "partial results" flag used to
// be dropped by the hop that read it, so a top directory over a mid
// directory with a dead leaf answered a clean success. The flag now rides up
// every level, and a hop reply carrying it is kept by nothing that would
// serve it again as if it were whole: not the query cache (the next
// identical query chains again), not the cached index (the subtree is
// fetched again), not a Bloom summary (a filter built without the dead
// leaf's hosts would rule them out for its TTL).
func TestPartialFlagCrossesLevels(t *testing.T) {
	t.Run("query cache", func(t *testing.T) {
		h := newHierarchy(t, 2, 4, 5, withQueryCache(time.Hour))
		res, err := h.client.SearchWith(rackQuery(0), nil)
		if err != nil || res.Result.Message != "" || len(res.Entries) != 20 {
			t.Fatalf("healthy tree: %d entries, %+v, %v", len(res.Entries), res, err)
		}
		if n := h.top.QueryCache().Len(); n != 2 {
			t.Fatalf("query cache holds %d keys after a complete answer, want one per mid", n)
		}

		h.killLeaf(0)
		// mid1's complete reply is cached by the first query; mid0's partial
		// one never is, so every query chains to mid0 again.
		h.wantPartial(t, rackQuery(1), 15, 2)
		h.wantPartial(t, rackQuery(1), 15, 1)
		if n := h.top.QueryCache().Len(); n != 3 {
			t.Errorf("query cache holds %d keys, want 3 (the partial reply not among them)", n)
		}
	})
	t.Run("cached index", func(t *testing.T) {
		h := newHierarchy(t, 2, 4, 5, func(c *Config) { c.Strategy = preset("cache", StrategyConfig{CacheTTL: time.Hour}) })
		h.killLeaf(0)
		// mid1's whole subtree becomes the index on the first query; mid0's,
		// missing a leaf, is answered but fetched again by the second.
		h.wantPartial(t, rackQuery(0), 15, 2)
		h.wantPartial(t, rackQuery(1), 15, 1)
	})
	t.Run("bloom summary", func(t *testing.T) {
		bloom := preset("bloom", StrategyConfig{CacheTTL: time.Hour})
		h := newHierarchy(t, 2, 4, 5, func(c *Config) { c.Strategy = bloom })
		h.killLeaf(0)
		// h0 lives on the dead leaf. mid1's summary rules mid1 out; mid0 has
		// no summary to be ruled out by, is asked, and says what it cannot see.
		hostQuery := func(name string) *ldap.SearchRequest {
			return &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=" + name + "))")}
		}
		h.wantPartial(t, hostQuery("h0"), 0, 3) // two summary fetches, one search
		h.wantPartial(t, hostQuery("h7"), 1, 1) // mid0's other leaf still answers
		if got := bloom.BloomSkipped.Value(); got != 2 {
			t.Errorf("summaries ruled out %d hops, want 2 (mid1, twice)", got)
		}
	})
}

// killLeaf makes leaf i unreachable from the mid above it.
func (h *hierarchy) killLeaf(i int) {
	h.leaves[i].Close()
	for _, mid := range h.mids {
		mid.evictAll()
	}
}

// wantPartial runs op at the top and requires entries entries, the partial
// flag, and chained hops chained by the top itself.
func (h *hierarchy) wantPartial(t *testing.T, op *ldap.SearchRequest, entries int, chained int64) {
	t.Helper()
	before := h.top.ChainedOps.Value()
	res, err := h.client.SearchWith(op, nil)
	if err != nil || len(res.Entries) != entries {
		t.Fatalf("%s with a dead leaf: %d entries, %v", op.Filter, len(res.Entries), err)
	}
	if !isPartial(res.Result) {
		t.Errorf("%s: top answered %+v, want the mid's partial flag passed up", op.Filter, res.Result)
	}
	if got := h.top.ChainedOps.Value() - before; got != chained {
		t.Errorf("%s: top chained %d hops, want %d", op.Filter, got, chained)
	}
}

// TestCachedReplyIsSentInSortedOrder: a query-cache reply is sorted once,
// when it is filled, and sent as it lies from then on. The miss that fills
// it, a joiner coalesced onto that fill and a later hit all emit the order a
// per-send SortEntries gave — over a mid whose own reply arrives grouped by
// leaf, which is not that order.
func TestCachedReplyIsSentInSortedOrder(t *testing.T) {
	gate := make(chan struct{})
	h := newHierarchy(t, 1, 2, 12, withQueryCache(time.Hour), func(c *Config) {
		c.Dial = func(url ldap.URL) (*ldap.Client, error) {
			<-gate // holds the first fill open until the joiner has parked
			return TCPDialer(url)
		}
	})
	search := func() []*ldap.Entry {
		c, err := ldap.Dial(h.addr)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer c.Close()
		res, err := c.SearchWith(rackQuery(0), nil)
		if err != nil || res.Result.Message != "" {
			t.Errorf("search: %+v, %v", res, err)
			return nil
		}
		return res.Entries
	}
	replies := make(chan []*ldap.Entry, 2)
	go func() { replies <- search() }() // the miss
	for h.top.QueryCache().Misses.Value() == 0 {
		runtime.Gosched()
	}
	go func() { replies <- search() }() // the joiner
	for h.top.QueryCache().Coalesced.Value() == 0 {
		runtime.Gosched()
	}
	close(gate)
	results := [][]*ldap.Entry{<-replies, <-replies, search()} // and the hit
	if s := h.top.QueryCache().Stats(); s.Misses != 1 || s.Coalesced != 1 || s.Hits != 1 {
		t.Fatalf("cache saw %+v, want one miss, one coalesced joiner, one hit", s)
	}
	for i, got := range results {
		if len(got) != 24 {
			t.Fatalf("reply %d: %d entries", i, len(got))
		}
		want := append([]*ldap.Entry(nil), got...)
		ldap.SortEntries(want)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("reply %d is not in sorted order: entry %d is %s, want %s", i, k, got[k].DN, want[k].DN)
			}
		}
	}
	// The fixture must be able to tell: hosts of both leaves interleave.
	if a, b := results[0][2].DN.String(), results[0][3].DN.String(); a[:6] != "hn=h10" || b[:6] != "hn=h11" {
		t.Fatalf("sorted order starts %s, %s, ...: fixture does not interleave leaves", a, b)
	}
}

// evictAll drops every pooled child connection, so the next chain dials.
func (s *Server) evictAll() {
	s.poolMu.Lock()
	var entries []*poolEntry
	for _, pe := range s.pool {
		pe.refs++
		entries = append(entries, pe)
	}
	s.poolMu.Unlock()
	for _, pe := range entries {
		s.evict(pe)
		s.release(pe)
	}
}

// chainRelayTree is BenchmarkChainRelay's tree: a top GIIS with a query
// cache over 2 mid GIIS over 8 GRIS of 25 hosts each.
func chainRelayTree(tb testing.TB) *hierarchy {
	return newHierarchy(tb, 2, 8, 25, func(c *Config) {
		c.QueryCache, c.QueryCacheTTL, c.QueryCacheMax = true, time.Hour, 256
	})
}

// TestChainRelayAllocationBudget: a 200-entry search through three hops,
// every query new to the top's cache, costs the whole tree — client, three
// directories, eight GRIS — at most 134 allocations, 133 to 134 measured
// (it took 1,171 while every entry-hop copied its name, and each reply grew
// its slice entry by entry; 446 while each chained op made its routing
// state, timeout timer and done message afresh, each streamed reply woke its
// writer's idle flush, and each hop's sort made its own scratch; 320 while
// each of the 11 searches served made its Request, context, writer and done
// reply afresh; 265 while each fan-out ran its misses on worker goroutines
// fed by job and reply channels, and each hop made its request, its result
// and its message apart; 226 while each of the 11 scanned requests took
// three allocations, its handler parsed its base and compiled its filter
// again, and each hop rendered its child's suffix afresh).
func TestChainRelayAllocationBudget(t *testing.T) {
	if !allocsExact {
		t.Skip("allocation counts are not the program's under -race or mdsdebug")
	}
	h := chainRelayTree(t)
	i := 0
	per := testing.AllocsPerRun(200, func() {
		i++
		res, err := h.client.SearchWith(rackQuery(i), nil)
		if err != nil || len(res.Entries) != 200 {
			t.Fatalf("search %d: %d entries, %v", i, len(res.Entries), err)
		}
	})
	t.Logf("allocations per 3-hop search of 200 entries: %.0f", per)
	if per > 134 {
		t.Errorf("a 3-hop search of 200 entries makes %.0f allocations, budget 134", per)
	}
}

// BenchmarkChainRelay is the discover-unique path in process: a top GIIS
// over 2 mid GIIS over 8 GRIS on loopback TCP, 200 entries of 7 attributes
// back per search through three hops, every query new to the top's cache.
// allocs/op is the whole tree's (client included), almost all of it each
// hop's fixed cost: an entry-hop takes ≈ 0.1 (TestWireRelayAllocationBudget)
// where decode → Entry → clone → re-encode took ≈ 57.
func BenchmarkChainRelay(b *testing.B) {
	h := chainRelayTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.client.SearchWith(rackQuery(i), nil)
		if err != nil || len(res.Entries) != 200 || res.Result.Message != "" {
			b.Fatalf("search %d: %d entries, %v", i, len(res.Entries), err)
		}
	}
	b.ReportMetric(200, "entries/op")
}

// TestBadBaseDNAnsweredProtocolError: a search whose base DN does not parse
// is answered protocolError over TCP, by a GRIS and by a GIIS, which chains
// nothing for it; the connection that sent it then answers a valid search.
func TestBadBaseDNAnsweredProtocolError(t *testing.T) {
	h := newHierarchy(t, 1, 1, 3)
	valid := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	for _, server := range []struct{ name, addr string }{
		{"GRIS", h.leaves[0].Addr().String()},
		{"GIIS", h.addr},
	} {
		c, err := ldap.Dial(server.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for _, bad := range []string{"===bad", "ou=s0, o=grid,"} {
			chained := h.top.ChainedOps.Value()
			res, err := c.Search(&ldap.SearchRequest{BaseDN: bad, Scope: ldap.ScopeWholeSubtree, Filter: valid.Filter})
			if res == nil || res.Result.Code != ldap.ResultProtocolError || len(res.Entries) != 0 {
				t.Fatalf("%s: base %q answered %+v, %v; want protocolError", server.name, bad, res, err)
			}
			if n := h.top.ChainedOps.Value(); n != chained {
				t.Errorf("%s: base %q chained %d ops", server.name, bad, n-chained)
			}
			if res, err := c.Search(valid); err != nil || len(res.Entries) != 3 {
				t.Fatalf("%s: a valid search after base %q: %v", server.name, bad, err)
			}
		}
	}
}
