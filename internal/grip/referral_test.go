package grip

import (
	"fmt"
	"testing"

	"mds2/internal/ldap"
	"mds2/internal/simnet"
)

// referralNode is a hand-built directory node for exercising the client's
// referral walk: it serves a fixed set of entries and refers the caller
// onward to other nodes.
type referralNode struct {
	ldap.BaseHandler
	entries []*ldap.Entry
	refer   []string
}

func (n *referralNode) Search(_ *ldap.Request, _ *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	for _, e := range n.entries {
		if err := w.SendEntry(e); err != nil {
			return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
		}
	}
	if len(n.refer) > 0 {
		if err := w.SendReferral(n.refer...); err != nil {
			return ldap.Result{Code: ldap.ResultOther, Message: err.Error()}
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

type referralRig struct {
	t       *testing.T
	network *simnet.Network
}

func newReferralRig(t *testing.T) *referralRig {
	return &referralRig{t: t, network: simnet.New(1)}
}

func (r *referralRig) serve(node string, h ldap.Handler) {
	r.t.Helper()
	srv := ldap.NewServer(h)
	l, err := r.network.Listen(node, "389")
	if err != nil {
		r.t.Fatal(err)
	}
	go srv.Serve(l)
	r.t.Cleanup(func() { srv.Close() })
}

func (r *referralRig) dial() func(url ldap.URL) (*Client, error) {
	return func(url ldap.URL) (*Client, error) {
		conn, err := r.network.Dial("client-node", url.Address())
		if err != nil {
			return nil, err
		}
		return NewClient(conn), nil
	}
}

func hostEntry(name string) *ldap.Entry {
	return ldap.NewEntry(ldap.MustParseDN(fmt.Sprintf("hn=%s, o=grid", name))).
		Add("objectclass", "computer").Add("hn", name)
}

// TestReferralChainAcrossHops follows a chain coordinator -> shard1 ->
// shard2: entries from every hop are collected even though the coordinator
// never names shard2 directly.
func TestReferralChainAcrossHops(t *testing.T) {
	r := newReferralRig(t)
	r.serve("shard2-node", &referralNode{entries: []*ldap.Entry{hostEntry("c")}})
	r.serve("shard1-node", &referralNode{
		entries: []*ldap.Entry{hostEntry("b")},
		refer:   []string{"sim://shard2-node:389/o=grid"},
	})
	r.serve("coord-node", &referralNode{
		entries: []*ldap.Entry{hostEntry("a")},
		refer:   []string{"sim://shard1-node:389/o=grid"},
	})

	dial := r.dial()
	c, err := dial(ldap.MustParseURL("sim://coord-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.First("hn"))
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("chain walk = %v, want [a b c]", names)
	}
}

// TestReferralDedupsReplicatedEntries: two replica shards both return the
// same provider's entry (K-way replication); the client keeps one copy.
func TestReferralDedupsReplicatedEntries(t *testing.T) {
	r := newReferralRig(t)
	r.serve("rep1-node", &referralNode{entries: []*ldap.Entry{hostEntry("x"), hostEntry("y")}})
	r.serve("rep2-node", &referralNode{entries: []*ldap.Entry{hostEntry("y"), hostEntry("z")}})
	r.serve("coord-node", &referralNode{refer: []string{
		"sim://rep1-node:389/o=grid",
		"sim://rep2-node:389/o=grid",
	}})

	dial := r.dial()
	c, err := dial(ldap.MustParseURL("sim://coord-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, e := range entries {
		seen[e.First("hn")]++
	}
	if len(entries) != 3 || seen["x"] != 1 || seen["y"] != 1 || seen["z"] != 1 {
		t.Fatalf("deduped walk = %v, want x,y,z once each", seen)
	}
}

// TestReferralLoopTerminates: two shards refer to each other (and back to
// the coordinator). The visited set must break the cycle.
func TestReferralLoopTerminates(t *testing.T) {
	r := newReferralRig(t)
	r.serve("loop1-node", &referralNode{
		entries: []*ldap.Entry{hostEntry("p")},
		refer:   []string{"sim://loop2-node:389/o=grid", "sim://coord-node:389/o=grid"},
	})
	r.serve("loop2-node", &referralNode{
		entries: []*ldap.Entry{hostEntry("q")},
		refer:   []string{"sim://loop1-node:389/o=grid"},
	})
	coord := &referralNode{refer: []string{"sim://loop1-node:389/o=grid"}}
	r.serve("coord-node", coord)

	dial := r.dial()
	c, err := dial(ldap.MustParseURL("sim://coord-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("loop walk = %d entries, want 2", len(entries))
	}
}

// TestReferralHopBudget: an endless referral ladder stops at maxHops with
// partial results rather than walking forever.
func TestReferralHopBudget(t *testing.T) {
	r := newReferralRig(t)
	const rungs = 8
	for i := 0; i < rungs; i++ {
		next := fmt.Sprintf("sim://rung%d-node:389/o=grid", i+1)
		r.serve(fmt.Sprintf("rung%d-node", i), &referralNode{
			entries: []*ldap.Entry{hostEntry(fmt.Sprintf("r%d", i))},
			refer:   []string{next},
		})
	}
	dial := r.dial()
	c, err := dial(ldap.MustParseURL("sim://rung0-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Initial search + 3 followed hops = 4 rungs seen; rung4's referral to
	// rung5 (which does not exist) is never dialed.
	if len(entries) != 4 {
		t.Fatalf("budgeted walk = %d entries, want 4", len(entries))
	}
}

// TestReferralSkipsDeadTargets: one referral target is unreachable; the
// client keeps the live targets' results (partial results, §2.2).
func TestReferralSkipsDeadTargets(t *testing.T) {
	r := newReferralRig(t)
	r.serve("live-node", &referralNode{entries: []*ldap.Entry{hostEntry("alive")}})
	r.serve("coord-node", &referralNode{refer: []string{
		"sim://dead-node:389/o=grid", // never listens
		"sim://live-node:389/o=grid",
	}})

	dial := r.dial()
	c, err := dial(ldap.MustParseURL("sim://coord-node:389"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("o=grid"), ldap.ScopeWholeSubtree,
		"(objectclass=computer)", dial, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("hn") != "alive" {
		t.Fatalf("partial walk = %v, want just the live target's entry", entries)
	}
}
