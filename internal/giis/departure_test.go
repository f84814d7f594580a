package giis

import (
	"fmt"
	"testing"
	"time"

	"mds2/internal/ldap"
)

// depart lets hostA's one-hour registration lapse and the registry apply
// the expiry.
func (r *rig) depart() {
	r.clock.Advance(time.Hour + time.Second)
	r.giis.Receiver().Registry.Sweep()
	if n := len(r.giis.Children()); n != 0 {
		r.t.Fatalf("%d children left after the registration lapsed", n)
	}
}

// TestDepartedChildLeavesCachedIndex: nothing a directory serves outlives
// the registration behind it — the cached index of a child whose
// registration lapsed is dropped with the registration, not kept (stale,
// since the index serves stale) for the matchmaker corpus that reads it.
func TestDepartedChildLeavesCachedIndex(t *testing.T) {
	strategy := preset("cache", StrategyConfig{CacheTTL: time.Minute})
	r := newRig(t, strategy)
	r.addHost("hostA", 1)
	if entries, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("search: %d entries, %+v", len(entries), res)
	}
	if len(strategy.Entries()) == 0 {
		t.Fatal("the search indexed nothing")
	}
	r.depart()
	if n := len(strategy.Entries()); n != 0 {
		t.Fatalf("the departed child's %d indexed entries are still served", n)
	}
}

// TestDepartedChildLeavesBloomSummaries: the same for a Bloom-routed
// directory's per-child summaries.
func TestDepartedChildLeavesBloomSummaries(t *testing.T) {
	strategy := preset("bloom", StrategyConfig{CacheTTL: time.Hour})
	r := newRig(t, strategy)
	r.addHost("hostA", 1)
	if entries, res := r.search(computerQuery()); res.Code != ldap.ResultSuccess || len(entries) != 1 {
		t.Fatalf("search: %d entries, %+v", len(entries), res)
	}
	if n := strategy.summaries.Len(); n != 1 {
		t.Fatalf("%d summaries resident after the search, want the child's", n)
	}
	r.depart()
	if n := strategy.summaries.Len(); n != 0 {
		t.Fatalf("%d summaries resident after the child departed, want none", n)
	}
}

// TestShardedPeerSummariesBoundedByRing: a sharded directory keys its peer
// summaries by ring member, so however many scatter searches and summary
// expiries pass, it holds at most one per other member.
func TestShardedPeerSummariesBoundedByRing(t *testing.T) {
	const shards = 4
	r := newShardRig(t, shards, 2, "proxy")
	for i := 0; i < 8; i++ {
		r.addHost(fmt.Sprintf("h%03d", i), fmt.Sprintf("site%d", i%2), int64(i))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < shards; i++ {
			id := fmt.Sprintf("s%d", i)
			_, res := r.search(id, &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter(fmt.Sprintf("(&(objectclass=computer)(o=site%d))", round%2))})
			if res.Code != ldap.ResultSuccess {
				t.Fatalf("round %d, %s: %+v", round, id, res)
			}
			if n := r.strats[id].summaries.Len(); n == 0 || n > shards-1 {
				t.Fatalf("round %d: %s holds %d peer summaries, want 1..%d", round, id, n, shards-1)
			}
		}
		r.clock.Advance(DefaultCacheTTL + time.Second)
	}
}
