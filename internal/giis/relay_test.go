package giis

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/shard"
)

// The reference oracle: the hop loop as it was before child result entries
// were relayed as wire bytes. Every hop's reply is tree-decoded into
// entries (Client.SearchWith), the view graft rewrites each entry's name in
// place, and Select deep-clones it on the way out. A relaying directory must
// show a client exactly what this shows.

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
		childBase, childScope, ok := translateRegion(base, op.Scope, child)
		if !ok {
			continue
		}
		pe, err := s.acquire(child.URL)
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
	m, err := ldap.ParseMessageBytes((&ldap.Message{ID: 1, Op: &ldap.SearchResultEntry{Entry: e}}).Encode())
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
		g.directory(m.ID, NewSharded(ring, m.ID, 2))
	}
	owner := shard.NewPlanner(ring, "", 2, ldap.MustParseDN("o=grid"), nil).
		Owners(g.suffixes["h3"].String())[0].ID
	g.directory("chain", NewChaining())
	g.directory("bloom", NewBloomRouted(time.Hour, 1<<14))
	g.directory("cache", NewCachedIndex(time.Hour))
	g.directory("qc", NewChaining(), withQueryCache(time.Hour))
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
	oracle := g.directory("oracle", NewChaining())

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
								if !reflect.DeepEqual(got[i].DN, want[i].DN) || !reflect.DeepEqual(got[i].Attrs, want[i].Attrs) {
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
	c, err := ldap.Dial(topL.Addr().String())
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
// every level, and a hop reply carrying it is not admitted to the query
// cache: the next identical query chains again.
func TestPartialFlagCrossesLevels(t *testing.T) {
	h := newHierarchy(t, 2, 4, 5, withQueryCache(time.Hour))
	res, err := h.client.SearchWith(rackQuery(0), nil)
	if err != nil || res.Result.Message != "" || len(res.Entries) != 20 {
		t.Fatalf("healthy tree: %d entries, %+v, %v", len(res.Entries), res, err)
	}
	if n := h.top.QueryCache().Len(); n != 2 {
		t.Fatalf("query cache holds %d keys after a complete answer, want one per mid", n)
	}

	h.leaves[0].Close() // mid0 can no longer dial its first leaf
	h.mids[0].evictAll()
	for i := 1; i <= 2; i++ {
		chained := h.top.ChainedOps.Value()
		res, err := h.client.SearchWith(rackQuery(1), nil)
		if err != nil || len(res.Entries) != 15 {
			t.Fatalf("query %d with a dead leaf: %d entries, %v", i, len(res.Entries), err)
		}
		if !isPartial(res.Result) {
			t.Errorf("query %d: top answered %+v, want the mid's partial flag passed up", i, res.Result)
		}
		// mid1's complete reply is cached by the first query; mid0's partial
		// one never is, so every query chains to mid0 again.
		if got, want := h.top.ChainedOps.Value()-chained, int64(3-i); got != want {
			t.Errorf("query %d: top chained %d hops, want %d", i, got, want)
		}
	}
	if n := h.top.QueryCache().Len(); n != 3 {
		t.Errorf("query cache holds %d keys, want 3 (the partial reply not among them)", n)
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

// BenchmarkChainRelay is the discover-unique path in process: a top GIIS
// over 2 mid GIIS over 8 GRIS on loopback TCP, 200 entries of 7 attributes
// back per search through three hops, every query new to the top's cache.
// allocs/op is the whole tree's (client included): the relay's share is
// ≈ 5 per entry-hop where decode → Entry → clone → re-encode took ≈ 57.
func BenchmarkChainRelay(b *testing.B) {
	h := newHierarchy(b, 2, 8, 25, func(c *Config) {
		c.QueryCache, c.QueryCacheTTL, c.QueryCacheMax = true, time.Hour, 256
	})
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
