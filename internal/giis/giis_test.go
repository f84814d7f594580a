package giis

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/providers"
	"mds2/internal/shard"
	"mds2/internal/simnet"
	"mds2/internal/softstate"
)

// rig is a little test grid: a simulated network carrying real LDAP bytes,
// N GRIS nodes, and one GIIS.
type rig struct {
	t       *testing.T
	clock   *softstate.FakeClock
	network *simnet.Network
	giis    *Server
	grises  map[string]*gris.Server
	servers []*ldap.Server
}

func newRig(t *testing.T, strategy *Strategy, mods ...func(*Config)) *rig {
	t.Helper()
	r := &rig{
		t:       t,
		clock:   softstate.NewFakeClock(),
		network: simnet.New(1),
		grises:  map[string]*gris.Server{},
	}
	cfg := Config{
		Name:     "giis.vo",
		Suffix:   ldap.MustParseDN("vo=alliance"),
		SelfURL:  ldap.MustParseURL("sim://giis-node:389"),
		Clock:    r.clock,
		Strategy: strategy,
		Dial: func(url ldap.URL) (*ldap.Client, error) {
			conn, err := r.network.Dial("giis-node", url.Address())
			if err != nil {
				return nil, err
			}
			return ldap.NewClient(conn), nil
		},
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	r.giis = New(cfg)
	t.Cleanup(r.giis.Close)
	return r
}

// addHost starts a GRIS for a fresh host on its own simnet node and
// registers it with the GIIS (directly, bypassing the datagram path —
// that path is exercised separately).
func (r *rig) addHost(name string, seed int64) *hostinfo.Host {
	r.t.Helper()
	h := hostinfo.New(name, hostinfo.Spec{
		OS: "linux redhat", OSVer: "6.2", CPUType: "ia32", CPUCount: 4, MemoryMB: 1024,
	}, seed)
	suffix := ldap.MustParseDN("hn=" + name + ", o=center1")
	g := gris.New(gris.Config{Suffix: suffix, Clock: r.clock})
	for _, b := range providers.HostBackends(h, suffix) {
		g.Register(b)
	}
	srv := ldap.NewServer(g)
	l, err := r.network.Listen(name+"-node", "389")
	if err != nil {
		r.t.Fatal(err)
	}
	go srv.Serve(l)
	r.t.Cleanup(func() { srv.Close() })
	r.grises[name] = g
	r.servers = append(r.servers, srv)

	now := r.clock.Now()
	msg := &grrp.Message{
		Type:       grrp.TypeRegister,
		ServiceURL: fmt.Sprintf("sim://%s-node:389", name),
		MDSType:    "gris",
		SuffixDN:   suffix.String(),
		IssuedAt:   now,
		ValidUntil: now.Add(time.Hour),
	}
	if !r.giis.Ingest(msg) {
		r.t.Fatalf("registration for %s refused", name)
	}
	return h
}

func (r *rig) search(req *ldap.SearchRequest) ([]*ldap.Entry, ldap.Result) {
	r.t.Helper()
	w := &sink{}
	res := r.giis.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}, req, w)
	return w.entries, res
}

type sink struct {
	entries   []*ldap.Entry
	referrals [][]string
}

func (s *sink) SendEntry(e *ldap.Entry, _ ...ldap.Control) error {
	s.entries = append(s.entries, e)
	return nil
}
func (s *sink) SendReferral(urls ...string) error {
	s.referrals = append(s.referrals, urls)
	return nil
}

func TestChainingMergesChildren(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)

	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 2 {
		t.Fatalf("computers = %d", len(entries))
	}
	// DNs are translated into the VO view namespace. Child replies stream
	// in arrival order, so check membership rather than position.
	want := "hn=hostA, o=center1, vo=alliance"
	found := false
	for _, e := range entries {
		if e.DN.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("missing %q in %v", want, entries)
	}
}

func TestScopedSearchChainsOnlyRelevantChild(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)

	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "hn=hostB, o=center1, vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("res=%+v n=%d", res, len(entries))
	}
	if r.giis.ChainedOps.Value() != 1 {
		t.Errorf("chained ops = %d, want 1 (scoping)", r.giis.ChainedOps.Value())
	}
	if hn := entries[0].First("hn"); hn != "hostB" {
		t.Errorf("hn = %q", hn)
	}
}

// TestSearchOutOfRangeNotChained: a directory used to chain a search of
// scope 5 or -1 unchanged to every child in view. A scope outside RFC 4511's
// {0, 1, 2}, or a negative limit, is a protocol error at the directory,
// before anything is chained.
func TestSearchOutOfRangeNotChained(t *testing.T) {
	h := newHierarchy(t, 1, 2, 2)
	for scope := ldap.Scope(-1); scope <= 5; scope++ {
		before := h.top.ChainedOps.Value()
		res, err := h.client.Search(&ldap.SearchRequest{BaseDN: "o=grid", Scope: scope,
			Filter: ldap.MustParseFilter("(objectclass=computer)")})
		chained := h.top.ChainedOps.Value() - before
		switch scope {
		case ldap.ScopeWholeSubtree:
			if err != nil || len(res.Entries) != 4 || chained == 0 {
				t.Errorf("scope %v: %d entries, %d chained, %v", scope, len(res.Entries), chained, err)
			}
		case ldap.ScopeBaseObject, ldap.ScopeSingleLevel:
			if err != nil {
				t.Errorf("scope %v: %v", scope, err)
			}
		default:
			if !ldap.IsCode(err, ldap.ResultProtocolError) || chained != 0 {
				t.Errorf("scope %v: %v after %d chained operations, want protocolError and none", scope, err, chained)
			}
		}
	}
	for _, req := range []*ldap.SearchRequest{
		{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree, SizeLimit: -1},
		{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree, TimeLimit: -1},
	} {
		before := h.top.ChainedOps.Value()
		if _, err := h.client.Search(req); !ldap.IsCode(err, ldap.ResultProtocolError) || h.top.ChainedOps.Value() != before {
			t.Errorf("size limit %d, time limit %d: %v, want protocolError and nothing chained", req.SizeLimit, req.TimeLimit, err)
		}
	}
}

func TestNameIndexServedLocally(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)

	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeSingleLevel,
		Filter: ldap.MustParseFilter("(objectclass=mdsservice)")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	// Self entry + 2 child index entries; no chained operations at all.
	if len(entries) != 3 {
		t.Fatalf("index entries = %d", len(entries))
	}
	if r.giis.ChainedOps.Value() != 0 {
		t.Errorf("name index should not chain, ops = %d", r.giis.ChainedOps.Value())
	}
}

func TestSoftStateExpiryRemovesChild(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	if len(r.giis.Children()) != 1 {
		t.Fatal("child missing")
	}
	r.clock.Advance(2 * time.Hour) // past the 1h registration TTL
	if len(r.giis.Children()) != 0 {
		t.Fatal("child should expire without refresh")
	}
	entries, _ := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if len(entries) != 0 {
		t.Fatalf("expired child still answered: %d", len(entries))
	}
}

func TestPartitionedChildYieldsPartialResults(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)
	// Partition hostB away from the GIIS.
	r.network.SetPartitions(
		[]string{"giis-node", "hostA-node"},
		[]string{"hostB-node"},
	)
	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 1 || entries[0].First("hn") != "hostA" {
		t.Fatalf("reachable subset = %v", entries)
	}
	if res.Message == "" {
		t.Error("partial results should be flagged")
	}
}

func TestLDAPAddCarriesRegistration(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	now := r.clock.Now()
	msg := &grrp.Message{
		Type:       grrp.TypeRegister,
		ServiceURL: "sim://late-node:389",
		MDSType:    "gris",
		SuffixDN:   "hn=late, o=center1",
		IssuedAt:   now,
		ValidUntil: now.Add(time.Hour),
	}
	req := &ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}
	res := r.giis.Add(req, &ldap.AddRequest{Entry: msg.ToEntry()})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("add = %+v", res)
	}
	if len(r.giis.Children()) != 1 {
		t.Fatal("registration not applied")
	}
	// Non-registration adds are refused.
	res = r.giis.Add(req, &ldap.AddRequest{Entry: ldap.NewEntry(ldap.MustParseDN("x=1")).
		Add("objectclass", "computer")})
	if res.Code != ldap.ResultUnwillingToPerform {
		t.Fatalf("bogus add = %+v", res)
	}
}

func TestVOAdmissionPolicy(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{
		Name: "giis", Suffix: ldap.MustParseDN("vo=alliance"),
		SelfURL: ldap.MustParseURL("sim://g:389"), Clock: clock,
		AcceptVO: "alliance",
		Dial:     func(ldap.URL) (*ldap.Client, error) { return nil, fmt.Errorf("no dial") },
	})
	defer s.Close()
	now := clock.Now()
	mk := func(vo string) *grrp.Message {
		return &grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://x:1/" + vo,
			VO: vo, SuffixDN: "hn=x", IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	}
	if !s.Ingest(mk("alliance")) {
		t.Error("member VO refused")
	}
	if s.Ingest(mk("other")) {
		t.Error("foreign VO accepted")
	}
	if s.Registrations.Value() != 1 {
		t.Errorf("registrations = %d", s.Registrations.Value())
	}
}

func TestSignedRegistrationRequired(t *testing.T) {
	clock := softstate.NewFakeClock()
	ca, _ := gsi.NewAuthority("o=ca")
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	s := New(Config{
		Name: "giis", Suffix: ldap.MustParseDN("vo=v"),
		SelfURL: ldap.MustParseURL("sim://g:389"), Clock: clock,
		Trust: trust, RequireSignedRegistrations: true,
		Dial: func(ldap.URL) (*ldap.Client, error) { return nil, fmt.Errorf("no dial") },
	})
	defer s.Close()
	now := clock.Now()
	unsigned := &grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://u:1",
		SuffixDN: "hn=u", IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	if s.Ingest(unsigned) {
		t.Error("unsigned registration accepted")
	}
	keys, _ := ca.Issue("cn=gris.x", time.Hour, now)
	signed := &grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://s:1",
		SuffixDN: "hn=s", IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	signed.Sign(keys)
	if !s.Ingest(signed) {
		t.Error("signed registration refused")
	}
}

func TestCachedIndexServesWithoutChaining(t *testing.T) {
	strategy := preset("cache", StrategyConfig{CacheTTL: 10 * time.Minute})
	r := newRig(t, strategy)
	r.addHost("hostA", 1)

	// First query populates the index (one chain).
	if entries, _ := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}); len(entries) != 1 {
		t.Fatalf("first query = %d", len(entries))
	}
	before := r.giis.ChainedOps.Value()
	// Repeat queries are served locally.
	for i := 0; i < 5; i++ {
		if entries, _ := r.search(&ldap.SearchRequest{
			BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.MustParseFilter("(objectclass=computer)")}); len(entries) != 1 {
			t.Fatalf("cached query = %d", len(entries))
		}
	}
	if r.giis.ChainedOps.Value() != before {
		t.Errorf("cached index chained %d extra times", r.giis.ChainedOps.Value()-before)
	}
	// After TTL the index refreshes.
	r.clock.Advance(11 * time.Minute)
	r.search(&ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if r.giis.ChainedOps.Value() <= before {
		t.Error("stale index should refresh")
	}
}

func TestCachedIndexServesStaleDuringPartition(t *testing.T) {
	strategy := preset("cache", StrategyConfig{CacheTTL: time.Minute})
	r := newRig(t, strategy)
	r.addHost("hostA", 1)
	// Populate.
	r.search(&ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	// Partition the child, expire the index.
	r.network.SetPartitions([]string{"giis-node"}, []string{"hostA-node"})
	r.clock.Advance(2 * time.Minute)
	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("stale service failed: %+v, %d", res, len(entries))
	}
}

func TestReferralStrategy(t *testing.T) {
	r := newRig(t, preset("referral", StrategyConfig{}))
	r.addHost("hostA", 1)
	w := &sink{}
	res := r.giis.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
		&ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.MustParseFilter("(objectclass=computer)")}, w)
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(w.referrals) != 1 || len(w.referrals[0]) != 1 {
		t.Fatalf("referrals = %v", w.referrals)
	}
	url := w.referrals[0][0]
	if url != "sim://hostA-node:389/hn=hostA, o=center1" {
		t.Errorf("referral = %q", url)
	}
	if r.giis.ChainedOps.Value() != 0 {
		t.Error("referral strategy must not chain")
	}
}

func TestBloomRoutedSkipsNonMatchingChildren(t *testing.T) {
	strategy := preset("bloom", StrategyConfig{CacheTTL: time.Hour})
	r := newRig(t, strategy)
	r.addHost("hostA", 1) // both hosts are linux/ia32 in the rig
	r.addHost("hostB", 2)

	// Warm the summaries.
	r.search(&ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(hn=hostA)")})
	base := r.giis.ChainedOps.Value()
	// A query for a host neither child has: both summaries miss, no chains.
	entries, _ := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=nonexistent))")})
	if len(entries) != 0 {
		t.Fatalf("ghost host found: %v", entries)
	}
	if r.giis.ChainedOps.Value() != base {
		t.Errorf("bloom routing should skip all children, chains = %d", r.giis.ChainedOps.Value()-base)
	}
	if strategy.BloomSkipped.Value() < 2 {
		t.Errorf("skipped = %d", strategy.BloomSkipped.Value())
	}
	// A query matching one host chains only there.
	entries, _ = r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=hostB))")})
	if len(entries) != 1 || entries[0].First("hn") != "hostB" {
		t.Fatalf("bloom-routed query = %v", entries)
	}
	if r.giis.ChainedOps.Value() != base+1 {
		t.Errorf("chains = %d, want exactly one", r.giis.ChainedOps.Value()-base)
	}
}

func TestHierarchyTwoLevels(t *testing.T) {
	// Figure 5: a center GIIS aggregates its hosts and registers with the
	// VO GIIS; searches at the VO root traverse both levels.
	r := newRig(t, preset("chain", StrategyConfig{}))

	clock := r.clock
	center := New(Config{
		Name: "giis.center2", Suffix: ldap.MustParseDN("o=center2"),
		SelfURL: ldap.MustParseURL("sim://center2-node:389"), Clock: clock,
		Dial: func(url ldap.URL) (*ldap.Client, error) {
			conn, err := r.network.Dial("center2-node", url.Address())
			if err != nil {
				return nil, err
			}
			return ldap.NewClient(conn), nil
		},
	})
	defer center.Close()
	centerSrv := ldap.NewServer(center)
	l, err := r.network.Listen("center2-node", "389")
	if err != nil {
		t.Fatal(err)
	}
	go centerSrv.Serve(l)
	defer centerSrv.Close()

	// A GRIS under center2.
	h := hostinfo.New("hostC", hostinfo.Spec{OS: "mips irix", OSVer: "6.5",
		CPUType: "mips", CPUCount: 64, MemoryMB: 8192}, 3)
	suffix := ldap.MustParseDN("hn=hostC, o=center2")
	g := gris.New(gris.Config{Suffix: suffix, Clock: clock})
	for _, b := range providers.HostBackends(h, suffix) {
		g.Register(b)
	}
	gSrv := ldap.NewServer(g)
	gl, err := r.network.Listen("hostC-node", "389")
	if err != nil {
		t.Fatal(err)
	}
	go gSrv.Serve(gl)
	defer gSrv.Close()

	now := clock.Now()
	// hostC registers with center2.
	if !center.Ingest(&grrp.Message{Type: grrp.TypeRegister,
		ServiceURL: "sim://hostC-node:389", MDSType: "gris", SuffixDN: suffix.String(),
		IssuedAt: now, ValidUntil: now.Add(time.Hour)}) {
		t.Fatal("hostC registration refused")
	}
	// center2 registers with the VO GIIS using its self-registration.
	reg := center.SelfRegistration("giis-node", "alliance", time.Minute, time.Hour)
	reg.Message.IssuedAt = now
	reg.Message.ValidUntil = now.Add(time.Hour)
	if !r.giis.Ingest(&reg.Message) {
		t.Fatal("center registration refused")
	}
	// Also a direct host at center1.
	r.addHost("hostA", 1)

	// VO-wide search finds hosts at both levels.
	entries, res := r.search(&ldap.SearchRequest{
		BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 2 {
		t.Fatalf("hosts across hierarchy = %d", len(entries))
	}
	var dns []string
	for _, e := range entries {
		dns = append(dns, e.DN.String())
	}
	wantC := "hn=hostC, o=center2, vo=alliance"
	found := false
	for _, dn := range dns {
		if dn == wantC {
			found = true
		}
	}
	if !found {
		t.Errorf("missing %q in %v", wantC, dns)
	}
	// Scoped search to center2 only (Figure 5: "resource names can be used
	// to scope searches to particular organizations").
	entries, _ = r.search(&ldap.SearchRequest{
		BaseDN: "o=center2, vo=alliance", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if len(entries) != 1 || entries[0].First("hn") != "hostC" {
		t.Fatalf("scoped = %v", entries)
	}
}

func TestInvitationFlow(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	var invited *grrp.Message
	r.network.HandleDatagrams("gris-node", func(from string, payload []byte) {
		m, err := grrp.Unmarshal(payload)
		if err == nil && m.Type == grrp.TypeInvite {
			invited = m
		}
	})
	tr := grrp.TransportFunc(func(to string, payload []byte) error {
		r.network.SendDatagram("giis-node", to, payload)
		return nil
	})
	if err := r.giis.Invite(tr, "gris-node", "alliance", time.Minute); err != nil {
		t.Fatal(err)
	}
	if invited == nil {
		t.Fatal("invitation not delivered")
	}
	if invited.ServiceURL != "sim://giis-node:389" || invited.VO != "alliance" {
		t.Fatalf("invitation = %+v", invited)
	}
}

func TestSizeLimitAcrossLocalAndChained(t *testing.T) {
	r := newRig(t, preset("chain", StrategyConfig{}))
	r.addHost("hostA", 1)
	r.addHost("hostB", 2)
	w := &sink{}
	res := r.giis.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
		&ldap.SearchRequest{BaseDN: "vo=alliance", Scope: ldap.ScopeWholeSubtree, SizeLimit: 3}, w)
	if res.Code != ldap.ResultSizeLimitExceeded {
		t.Fatalf("res = %+v", res)
	}
	if len(w.entries) != 3 {
		t.Fatalf("entries = %d", len(w.entries))
	}
}

// TestStrategyNames: every name -strategy accepts builds, and a server using
// it calls itself by that name in its root DSE; any other name is refused
// with the list of names.
func TestStrategyNames(t *testing.T) {
	for _, name := range strings.Split(StrategyNames(), " | ") {
		t.Run(name, func(t *testing.T) {
			st, err := NewStrategy(name, soloRing)
			if err != nil {
				t.Fatal(err)
			}
			r := newRig(t, st)
			w := &sink{}
			res := r.giis.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
				&ldap.SearchRequest{BaseDN: "", Scope: ldap.ScopeBaseObject}, w)
			if res.Code != ldap.ResultSuccess || len(w.entries) != 1 {
				t.Fatalf("root DSE: %+v, %d entries", res, len(w.entries))
			}
			if got := w.entries[0].First("searchstrategy"); got != name {
				t.Errorf("searchstrategy: %q, want %q", got, name)
			}
		})
	}
	_, err := NewStrategy("chaining", StrategyConfig{})
	if err == nil || !strings.Contains(err.Error(), StrategyNames()) {
		t.Errorf("unknown name: %v, want an error listing %s", err, StrategyNames())
	}
}

// preset builds a strategy the way -strategy does.
func preset(name string, c StrategyConfig) *Strategy {
	st, err := NewStrategy(name, c)
	if err != nil {
		panic(err)
	}
	return st
}

// soloRing configures a one-member ring whose member is the rigs' directory
// node: every child is local, and the other presets ignore it.
var soloRing = StrategyConfig{Ring: "s0=sim://giis-node:389", ShardID: "s0", Replicas: 1, ShardMode: "proxy"}

// ringSpec renders members as -shard-ring spells them.
func ringSpec(members []shard.Member) string {
	specs := make([]string, len(members))
	for i, m := range members {
		specs[i] = m.ID + "=" + m.URL.String()
	}
	return strings.Join(specs, ",")
}
