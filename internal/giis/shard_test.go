package giis

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/grip"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/providers"
	"mds2/internal/shard"
	"mds2/internal/simnet"
	"mds2/internal/softstate"
)

// shardRig is a ring of sharded GIIS replicas plus GRIS hosts on one
// simulated network.
type shardRig struct {
	t       *testing.T
	clock   *softstate.FakeClock
	network *simnet.Network
	ring    *shard.Ring
	shards  map[string]*Server
	strats  map[string]*Strategy
	// hostSuffix maps host name -> registration suffix.
	hostSuffix map[string]ldap.DN
}

func shardNode(id string) string { return id + "-node" }

func newShardRig(t *testing.T, n, k int, mode string) *shardRig {
	t.Helper()
	r := &shardRig{
		t:          t,
		clock:      softstate.NewFakeClock(),
		network:    simnet.New(1),
		shards:     map[string]*Server{},
		strats:     map[string]*Strategy{},
		hostSuffix: map[string]ldap.DN{},
	}
	members := make([]shard.Member, n)
	for i := range members {
		id := fmt.Sprintf("s%d", i)
		members[i] = shard.Member{ID: id,
			URL: ldap.MustParseURL(fmt.Sprintf("sim://%s:389", shardNode(id)))}
	}
	r.ring = shard.NewRing(members, 0)
	for _, m := range members {
		m := m
		st := preset("sharded", StrategyConfig{Ring: ringSpec(members), ShardID: m.ID, Replicas: k, ShardMode: mode})
		s := New(Config{
			Name:     "giis." + m.ID,
			Suffix:   ldap.MustParseDN("o=grid"),
			SelfURL:  m.URL,
			Clock:    r.clock,
			Strategy: st,
			Dial: func(url ldap.URL) (*ldap.Client, error) {
				conn, err := r.network.Dial(shardNode(m.ID), url.Address())
				if err != nil {
					return nil, err
				}
				return ldap.NewClient(conn), nil
			},
		})
		t.Cleanup(s.Close)
		srv := ldap.NewServer(s)
		l, err := r.network.Listen(shardNode(m.ID), "389")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		r.shards[m.ID] = s
		r.strats[m.ID] = st
	}
	return r
}

// addHost starts a GRIS under "hn=<name>, o=<site>, o=grid" and offers its
// registration to every shard — the ownership check at each registry admits
// only the owners.
func (r *shardRig) addHost(name, site string, seed int64) {
	r.t.Helper()
	h := hostinfo.New(name, hostinfo.Spec{
		OS: "linux redhat", OSVer: "6.2", CPUType: "ia32", CPUCount: 4, MemoryMB: 1024,
	}, seed)
	suffix := ldap.MustParseDN(fmt.Sprintf("hn=%s, o=%s, o=grid", name, site))
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
	r.hostSuffix[name] = suffix

	for _, s := range r.shards {
		s.Ingest(r.registration(name))
	}
}

func (r *shardRig) registration(name string) *grrp.Message {
	now := r.clock.Now()
	return &grrp.Message{
		Type:       grrp.TypeRegister,
		ServiceURL: fmt.Sprintf("sim://%s-node:389", name),
		MDSType:    "gris",
		SuffixDN:   r.hostSuffix[name].String(),
		IssuedAt:   now,
		ValidUntil: now.Add(time.Hour),
	}
}

// owners returns the shard IDs owning a host's registration.
func (r *shardRig) owners(name string) []string {
	var out []string
	for _, m := range r.strats["s0"].ring.planner.Owners(r.hostSuffix[name].String()) {
		out = append(out, m.ID)
	}
	return out
}

// coordinator picks a shard that does NOT own the host, so queries must
// cross shard boundaries.
func (r *shardRig) coordinator(name string) string {
	owned := map[string]bool{}
	for _, id := range r.owners(name) {
		owned[id] = true
	}
	for id := range r.shards {
		if !owned[id] {
			return id
		}
	}
	r.t.Fatalf("no non-owner shard for %s", name)
	return ""
}

func (r *shardRig) search(id string, req *ldap.SearchRequest) ([]*ldap.Entry, ldap.Result) {
	r.t.Helper()
	w := &sink{}
	res := r.shards[id].Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}, req, w)
	return w.entries, res
}

func TestShardedOwnershipBoundsResidency(t *testing.T) {
	const hosts, k, shards = 40, 2, 4
	r := newShardRig(t, shards, k, "proxy")
	for i := 0; i < hosts; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), fmt.Sprintf("site%d", i%4), int64(i))
	}
	total := 0
	bound := int(1.25 * float64(hosts*k) / shards)
	for id, s := range r.shards {
		n := s.Receiver().Registry.Len()
		total += n
		if n > bound {
			t.Errorf("shard %s holds %d registrations, above bound %d", id, n, bound)
		}
		if got := s.Receiver().Registry.NotOwnedTotal(); got == 0 {
			t.Errorf("shard %s refused no registrations; ownership check inactive?", id)
		}
	}
	if total != hosts*k {
		t.Fatalf("total resident registrations = %d, want N*K = %d", total, hosts*k)
	}
}

func TestShardedRoutableQuery(t *testing.T) {
	r := newShardRig(t, 4, 2, "proxy")
	for i := 0; i < 8; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), "site0", int64(i))
	}
	co := r.coordinator("h003")
	entries, res := r.search(co, &ldap.SearchRequest{
		BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=h003))")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 1 || entries[0].First("hn") != "h003" {
		t.Fatalf("entries = %v", entries)
	}
	st := r.strats[co]
	if st.RoutableSearches.Value() != 1 || st.ScatterSearches.Value() != 0 {
		t.Errorf("routable=%d scatter=%d, want 1/0",
			st.RoutableSearches.Value(), st.ScatterSearches.Value())
	}
	if st.PeerQueries.Value() == 0 {
		t.Error("routable query from non-owner should hit a peer")
	}
	// The owners were queried, not the whole ring.
	if st.PeerQueries.Value() > 2 {
		t.Errorf("peer queries = %d, want <= K", st.PeerQueries.Value())
	}
}

func TestShardedBaseRoutedQuery(t *testing.T) {
	r := newShardRig(t, 4, 2, "proxy")
	r.addHost("h000", "site0", 1)
	co := r.coordinator("h000")
	entries, res := r.search(co, &ldap.SearchRequest{
		BaseDN: r.hostSuffix["h000"].String(), Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("res=%+v n=%d", res, len(entries))
	}
	if !r.strats[co].ring.planner.Plan(r.hostSuffix["h000"], nil).Routable {
		t.Error("base naming a host should be routable")
	}
}

func TestShardedScatterDedup(t *testing.T) {
	const hosts = 6
	r := newShardRig(t, 4, 2, "proxy")
	for i := 0; i < hosts; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), "site0", int64(i))
	}
	entries, res := r.search("s0", &ldap.SearchRequest{
		BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	// Every host exactly once, despite each living on K=2 shards.
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.First("hn")]++
	}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%03d", i)
		if seen[name] != 1 {
			t.Errorf("host %s appeared %d times, want 1", name, seen[name])
		}
	}
	st := r.strats["s0"]
	if st.ScatterSearches.Value() != 1 {
		t.Errorf("scatter searches = %d, want 1", st.ScatterSearches.Value())
	}
	if st.DupDropped.Value() == 0 {
		t.Error("K=2 replication should produce duplicates for the dedup to drop")
	}
}

func TestShardedFailoverToReplica(t *testing.T) {
	r := newShardRig(t, 4, 2, "proxy")
	for i := 0; i < 8; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), "site0", int64(i))
	}
	name := "h005"
	owners := r.owners(name)
	co := r.coordinator(name)
	// Kill the primary owner: isolate its node (streams severed, dials
	// refused).
	r.network.SetPartitions([]string{}, []string{shardNode(owners[0])})

	entries, res := r.search(co, &ldap.SearchRequest{
		BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=" + name + "))")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 1 || entries[0].First("hn") != name {
		t.Fatalf("surviving replica should answer, got %v", entries)
	}
	if r.strats[co].PeerFailovers.Value() == 0 {
		t.Error("failover counter should record the dead primary")
	}
}

func TestShardedReferralModeFollowedByClient(t *testing.T) {
	const hosts = 6
	r := newShardRig(t, 3, 2, "referral")
	for i := 0; i < hosts; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), "site0", int64(i))
	}
	dial := func(url ldap.URL) (*grip.Client, error) {
		conn, err := r.network.Dial("client-node", url.Address())
		if err != nil {
			return nil, err
		}
		return grip.NewClient(conn), nil
	}
	co, err := dial(ldap.MustParseURL("sim://s0-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Routable: the coordinator serves its partition and refers to the
	// key's owners.
	entries, err := co.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(&(objectclass=computer)(hn=h004))", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("hn") != "h004" {
		t.Fatalf("referral follow-up = %v", entries)
	}

	// Scatter: referrals to the whole ring; entries still deduped.
	entries, err = co.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.First("hn")]++
	}
	for i := 0; i < hosts; i++ {
		name := fmt.Sprintf("h%03d", i)
		if seen[name] != 1 {
			t.Fatalf("host %s appeared %d times, want 1", name, seen[name])
		}
	}
}

func TestShardedBloomSkipsHopelessPeers(t *testing.T) {
	r := newShardRig(t, 4, 2, "proxy")
	for i := 0; i < 8; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), fmt.Sprintf("site%d", i%2), int64(i))
	}
	// Unroutable (o is not a key attribute) with a summary-attr term no
	// shard's namespace contains: every peer is provably hopeless.
	entries, res := r.search("s0", &ldap.SearchRequest{
		BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(o=nowhere))")})
	if res.Code != ldap.ResultSuccess || len(entries) != 0 {
		t.Fatalf("res=%+v n=%d", res, len(entries))
	}
	st := r.strats["s0"]
	if st.BloomSkipped.Value() != 3 {
		t.Errorf("bloom skipped = %d, want all 3 peers", st.BloomSkipped.Value())
	}

	// A namespace term that does exist must not suppress fan-out (the
	// summary is a pre-filter, never a false negative): peers holding site1
	// hosts get queried.
	skippedBefore := st.BloomSkipped.Value()
	queriesBefore := st.PeerQueries.Value()
	_, res = r.search("s0", &ldap.SearchRequest{
		BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(o=site1))")})
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("res = %+v", res)
	}
	if skipped := st.BloomSkipped.Value() - skippedBefore; skipped == 3 {
		t.Error("present term suppressed every peer: summary is lying")
	}
	if st.PeerQueries.Value() == queriesBefore {
		t.Error("present term should reach at least one peer")
	}
}

func TestShardedConcurrentSearches(t *testing.T) {
	r := newShardRig(t, 3, 2, "proxy")
	for i := 0; i < 6; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), "site0", int64(i))
	}
	done := make(chan error, 12)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for q := 0; q < 3; q++ {
				name := fmt.Sprintf("h%03d", (g+q)%6)
				entries, res := r.search(fmt.Sprintf("s%d", g%3), &ldap.SearchRequest{
					BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
					Filter: ldap.MustParseFilter("(&(objectclass=computer)(hn=" + name + "))")})
				if res.Code != ldap.ResultSuccess || len(entries) != 1 {
					done <- fmt.Errorf("g%d q%d: res=%+v n=%d", g, q, res, len(entries))
					continue
				}
				done <- nil
			}
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestShardedMembersServeTheirOwnSummaries: ring members built from one
// Extensions map each answer the shard-summary operation with a summary of
// their own children, and the caller's map is left as it was. A member
// answering with another's summary would let a scattering peer rule it out
// for a query that only its own children match.
func TestShardedMembersServeTheirOwnSummaries(t *testing.T) {
	const oid = "1.3.6.1.4.1.3536.2.99"
	shared := map[string]Extension{oid: func(*ldap.Request, []byte) ([]byte, error) { return nil, nil }}
	members := []shard.Member{
		{ID: "a", URL: ldap.MustParseURL("sim://a-node:389")},
		{ID: "b", URL: ldap.MustParseURL("sim://b-node:389")},
	}
	clock := softstate.NewFakeClock()
	var servers []*Server
	for _, m := range members {
		s := New(Config{Name: "giis." + m.ID, Suffix: ldap.MustParseDN("o=grid"), SelfURL: m.URL, Clock: clock,
			Strategy: preset("sharded", StrategyConfig{Ring: ringSpec(members), ShardID: m.ID,
				Replicas: 1, ShardMode: "proxy"}),
			Extensions: shared})
		t.Cleanup(s.Close)
		servers = append(servers, s)
	}
	now := clock.Now()
	for i := 0; i < 16; i++ {
		for _, s := range servers { // each member admits what it owns
			s.Ingest(&grrp.Message{Type: grrp.TypeRegister, MDSType: "gris",
				ServiceURL: fmt.Sprintf("sim://h%03d-node:389", i),
				SuffixDN:   fmt.Sprintf("hn=h%03d, o=site%d, o=grid", i, i),
				IssuedAt:   now, ValidUntil: now.Add(time.Hour)})
		}
	}
	for i, s := range servers {
		children := s.Children()
		if len(children) == 0 || len(children) == 16 {
			t.Fatalf("member %s holds %d of 16 children, want a share", members[i].ID, len(children))
		}
		resp := s.Extended(&ldap.Request{}, &ldap.ExtendedRequest{OID: shard.OIDShardSummary})
		if resp.Result.Code != ldap.ResultSuccess {
			t.Fatalf("member %s: %+v", members[i].ID, resp.Result)
		}
		f, err := bloom.UnmarshalBinary(resp.Value)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			for _, term := range shard.SuffixTerms(c.Suffix) {
				if !f.Test(term) {
					t.Errorf("member %s's summary rules out %q of its own child %s", members[i].ID, term, c.Suffix)
				}
			}
		}
	}
	if _, added := shared[shard.OIDShardSummary]; added || len(shared) != 1 {
		t.Errorf("the caller's Extensions map was written: %d handlers", len(shared))
	}
}
