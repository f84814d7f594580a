package giis

import (
	"fmt"
	"sync"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/shard"
)

// ShardMode selects how a sharded directory involves its peers in a search.
type ShardMode int

// Shard modes.
const (
	// ShardProxy chains sub-queries to the owning peers and merges their
	// replies — the client sees one directory.
	ShardProxy ShardMode = iota
	// ShardReferral returns the owning peers as LDAP referrals; the client
	// walks them with grip.Client.SearchFollowingReferrals.
	ShardReferral
)

// Sharded is the partitioned directory tier: this GIIS is one member of a
// consistent-hash ring that splits the registration namespace, each
// registration replicated to Replicas owners. The strategy answers from
// the local partition and involves exactly the owning peers when the query
// names a partition key, falling back to scatter-gather (with Bloom
// pre-filtering and DN dedup) when it does not. Registrations for keys
// this shard does not own are refused at the soft-state registry, which is
// what bounds per-node resident entries near N·Replicas/shards.
type Sharded struct {
	// Ring is the shared shard configuration; Self is this node's member
	// ID on it.
	Ring *shard.Ring
	Self string
	// Replicas is K, the number of owners per registration key (default 2).
	Replicas int
	// KeyAttrs are the partition-key attribute types
	// (shard.DefaultKeyAttrs when empty).
	KeyAttrs []string
	// Mode selects proxy (default) or referral peer involvement.
	Mode ShardMode
	Fanout
	// SummaryTTL bounds peer-summary staleness (default 30s); SummaryAttrs
	// is the testable vocabulary (shard.DefaultSummaryAttrs when empty).
	SummaryTTL   time.Duration
	SummaryAttrs []string

	s       *Server
	planner *shard.Planner

	// routes is the routing index over the local child set and localSummary
	// this shard's own Bloom summary (served to peers over the shard-summary
	// extended operation), each rebuilt when the child table has moved.
	routes       memo[shardRoutes]
	localSummary memo[[]byte]
	// summaries caches peer summaries by member ID, so it holds at most one
	// per ring member.
	summaries *qcache.Table[*bloom.Filter]

	// Stats, registered under giis_shard_* when the server has an obs
	// registry.
	RoutableSearches obs.Counter // searches routed to owners only
	ScatterSearches  obs.Counter // searches scattered ring-wide
	PeerQueries      obs.Counter // chained sub-queries sent to peers
	PeerFailovers    obs.Counter // owner failures absorbed by a replica
	PeerReferrals    obs.Counter // referral URLs returned to clients
	BloomSkipped     obs.Counter // scatter fan-outs skipped by summaries
	DupDropped       obs.Counter // duplicate entries dropped by DN dedup
}

// DefaultShardSummaryTTL bounds peer-summary staleness when unset.
const DefaultShardSummaryTTL = 30 * time.Second

// NewSharded builds the sharded strategy for one ring member.
func NewSharded(ring *shard.Ring, self string, replicas int) *Sharded {
	return &Sharded{Ring: ring, Self: self, Replicas: replicas}
}

// newShardedStrategy is the strategy table's sharded entry.
func newShardedStrategy(c StrategyConfig) (Strategy, error) {
	members, err := shard.ParseRing(c.Ring)
	if err != nil {
		return nil, fmt.Errorf("giis: strategy sharded needs -shard-ring: %w", err)
	}
	ring := shard.NewRing(members, 0)
	if _, ok := ring.Member(c.ShardID); !ok {
		return nil, fmt.Errorf("giis: strategy sharded needs -shard-id naming a ring member, got %q", c.ShardID)
	}
	mode, ok := map[string]ShardMode{"proxy": ShardProxy, "referral": ShardReferral}[c.ShardMode]
	if !ok {
		return nil, fmt.Errorf("giis: unknown shard mode %q (want proxy | referral)", c.ShardMode)
	}
	sh := NewSharded(ring, c.ShardID, c.Replicas)
	sh.Mode, sh.Fanout, sh.SummaryTTL = mode, c.Fanout, c.CacheTTL
	return sh, nil
}

// Name implements Strategy.
func (sh *Sharded) Name() string { return "sharded" }

// Planner exposes the routing decisions (registrars and the shard tests
// place registrations with it).
func (sh *Sharded) Planner() *shard.Planner { return sh.planner }

func (sh *Sharded) attach(s *Server) {
	sh.s = s
	if sh.Replicas < 1 {
		sh.Replicas = 2
	}
	if sh.SummaryTTL <= 0 {
		sh.SummaryTTL = DefaultShardSummaryTTL
	}
	if len(sh.SummaryAttrs) == 0 {
		sh.SummaryAttrs = shard.DefaultSummaryAttrs
	}
	sh.summaries = qcache.NewTable[*bloom.Filter](qcache.TableConfig{Clock: s.clock})
	sh.planner = shard.NewPlanner(sh.Ring, sh.Self, sh.Replicas, s.cfg.Suffix, sh.KeyAttrs)

	// Ownership enforcement: registrations hashing to other shards are
	// refused at the registry, so a misdirected (or broadcast-storm) stream
	// cannot inflate this node's resident set.
	s.receiver.Registry.SetOwns(func(_ string, payload any) bool {
		m, ok := payload.(*grrp.Message)
		if !ok {
			return false
		}
		return sh.planner.OwnsRegistration(m.SuffixDN)
	})

	// The shard-summary extended operation serves this shard's Bloom
	// summary to peers.
	if s.cfg.Extensions == nil {
		s.cfg.Extensions = map[string]Extension{}
	}
	s.cfg.Extensions[shard.OIDShardSummary] = func(*ldap.Request, []byte) ([]byte, error) {
		return sh.localSummaryBytes(), nil
	}

	if s.cfg.Obs != nil {
		s.cfg.Obs.RegisterCounter("giis_shard_routable_total", &sh.RoutableSearches)
		s.cfg.Obs.RegisterCounter("giis_shard_scatter_total", &sh.ScatterSearches)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_queries_total", &sh.PeerQueries)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_failovers_total", &sh.PeerFailovers)
		s.cfg.Obs.RegisterCounter("giis_shard_peer_referrals_total", &sh.PeerReferrals)
		s.cfg.Obs.RegisterCounter("giis_shard_bloom_skipped_total", &sh.BloomSkipped)
		s.cfg.Obs.RegisterCounter("giis_shard_dup_dropped_total", &sh.DupDropped)
		reg := s.receiver.Registry
		s.cfg.Obs.CounterFunc("giis_shard_not_owned_total", func() int64 {
			return int64(reg.NotOwnedTotal())
		})
	}
}

// memo holds a value derived from one child-table generation. A stale value
// is rebuilt outside the lock, so callers that race past a new generation
// may each build; the newest generation's value is the one kept.
type memo[V any] struct {
	mu  sync.Mutex
	gen uint64 // zero: nothing held (table generations start at one)
	val V
}

func (m *memo[V]) get(gen uint64, build func() V) V {
	m.mu.Lock()
	if m.gen == gen {
		v := m.val
		m.mu.Unlock()
		return v
	}
	m.mu.Unlock()
	v := build()
	m.mu.Lock()
	if gen > m.gen {
		m.val, m.gen = v, gen
	}
	m.mu.Unlock()
	return v
}

// shardRoutes is the key-routed view of the local child set. It holds the
// records, so a route read after a refresh still sees the new deadline.
type shardRoutes struct {
	byKey    map[string][]*childRec
	wildcard []*childRec // records whose suffix carries no partition key
}

func (sh *Sharded) buildRoutes(recs []*childRec) shardRoutes {
	r := shardRoutes{byKey: map[string][]*childRec{}}
	for _, rec := range recs {
		if key, keyed := sh.planner.RegistrationKeyDN(rec.Suffix); keyed {
			r.byKey[key] = append(r.byKey[key], rec)
		} else {
			r.wildcard = append(r.wildcard, rec)
		}
	}
	return r
}

// inRegionOf keeps the routed records whose namespace the search region can
// touch, as children with current deadlines. The candidates are few; the
// whole child set is searched through the view tree instead
// (SearchContext.inRegion).
func inRegionOf(ctx *SearchContext, recs []*childRec) []Child {
	var relevant []Child
	for _, rec := range recs {
		if _, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, &rec.Child); ok {
			relevant = append(relevant, rec.child())
		}
	}
	return relevant
}

// peerChild wraps a ring member as a chain target. Peers share this
// directory's suffix, so region translation and DN grafting are identity.
func (sh *Sharded) peerChild(m shard.Member) Child {
	return Child{URL: m.URL, Suffix: sh.s.cfg.Suffix, ViewSuffix: sh.s.cfg.Suffix, MDSType: "giis"}
}

// shardLocal marks a sub-query as one peer asking another (shared and
// read-only: chains copy it before appending trace controls).
var shardLocal = []ldap.Control{{OID: shard.OIDShardLocal}}

// peerHop chains to the first of members that answers, as a shard-local
// sub-query so the peer answers from its own children without fanning out
// again.
func (sh *Sharded) peerHop(members ...shard.Member) hop {
	targets := make([]Child, len(members))
	for i, m := range members {
		targets[i] = sh.peerChild(m)
	}
	return hop{targets: targets, extra: shardLocal, attempt: func(n int) {
		sh.PeerQueries.Inc()
		if n > 0 {
			sh.PeerFailovers.Inc()
		}
	}}
}

// Search implements Strategy.
func (sh *Sharded) Search(ctx *SearchContext) ldap.Result {
	// A peer's sub-query carries the shard-local control: answer from the
	// local partition only, never fan out again — this one-hop rule is what
	// terminates proxy chains on a ring.
	localOnly := false
	if ctx.Req != nil {
		_, localOnly = ldap.FindControl(ctx.Req.Controls, shard.OIDShardLocal)
	}

	plan := sh.planner.Plan(ctx.Base, ctx.Op.Filter)

	// Select the local children the region can touch. Routable regions —
	// whether the query arrived from a client or as a peer's sub-query —
	// read the key index, and check only the children it names; the rest
	// walk the view tree. Either way an owner holding hundreds of thousands
	// of residents pays for what the region holds, not for its partition.
	var local []Child
	if plan.Routable {
		recs, gen := sh.s.table.records()
		routes := sh.routes.get(gen, func() shardRoutes { return sh.buildRoutes(recs) })
		var cands []*childRec
		for _, k := range plan.Keys {
			cands = append(cands, routes.byKey[k]...)
		}
		local = inRegionOf(ctx, append(cands, routes.wildcard...))
	} else {
		local = ctx.inRegion()
	}

	if localOnly {
		return sh.searchLocal(ctx, local)
	}
	if plan.Routable {
		sh.RoutableSearches.Inc()
	} else {
		sh.ScatterSearches.Inc()
	}
	if sh.Mode == ShardReferral {
		return sh.searchReferral(ctx, local, &plan)
	}
	return sh.searchProxy(ctx, local, &plan)
}

// searchLocal answers entirely from the local partition's in-region
// children (peer sub-queries and the local half of every mode).
func (sh *Sharded) searchLocal(ctx *SearchContext, local []Child) ldap.Result {
	return sh.run(ctx, childHops(local), &sh.DupDropped)
}

// searchProxy merges the local partition with chained peer sub-queries.
func (sh *Sharded) searchProxy(ctx *SearchContext, local []Child, plan *shard.Plan) ldap.Result {
	hops := childHops(local)
	if plan.Routable {
		// One hop per key, failing over through the key's owners.
		for _, key := range plan.Keys {
			if owners := plan.OwnersFor(key); len(owners) > 0 {
				hops = append(hops, sh.peerHop(owners...))
			}
		}
	} else {
		// Scatter: every other ring member, minus those whose Bloom summary
		// proves they cannot match.
		terms := shard.QueryTerms(ctx.Op.Filter, sh.SummaryAttrs)
		for _, m := range plan.Remote {
			h := sh.peerHop(m)
			h.skip = func() bool {
				return sh.s.rulesOut(sh.summaries, sh.SummaryTTL, m.ID, terms, &sh.BloomSkipped,
					func() *bloom.Filter { return sh.fetchSummary(m) })
			}
			hops = append(hops, h)
		}
	}
	return sh.run(ctx, hops, &sh.DupDropped)
}

// searchReferral serves the local partition and refers the client to the
// peers that may hold the rest; grip.Client.SearchFollowingReferrals walks
// them with loop and duplicate protection.
func (sh *Sharded) searchReferral(ctx *SearchContext, local []Child, plan *shard.Plan) ldap.Result {
	res := sh.searchLocal(ctx, local)
	if res.Code != ldap.ResultSuccess {
		return res
	}
	var urls []string
	if plan.Routable {
		// Refer to every owner of every remote key: the client dedups
		// replicated entries and an unreachable primary is covered by its
		// replica.
		for _, key := range plan.Keys {
			for _, m := range plan.OwnersFor(key) {
				urls = append(urls, m.URL.WithDN(ctx.Base).String())
			}
		}
	} else {
		for _, m := range plan.Remote {
			urls = append(urls, m.URL.WithDN(ctx.Base).String())
		}
	}
	urls = dedupSorted(urls)
	sh.PeerReferrals.Add(int64(len(urls)))
	return ctx.refer(res, urls)
}

func dedupSorted(in []string) []string {
	if len(in) < 2 {
		return in
	}
	seen := make(map[string]struct{}, len(in))
	out := in[:0]
	for _, s := range in {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// localSummaryBytes renders this shard's Bloom summary of its children's
// namespace terms.
func (sh *Sharded) localSummaryBytes() []byte {
	sh.s.sweep()
	recs, gen := sh.s.table.records()
	return sh.localSummary.get(gen, func() []byte {
		var terms []string
		for _, rec := range recs {
			terms = append(terms, shard.SuffixTerms(rec.Suffix)...)
		}
		f := bloom.NewForCapacity(len(terms), 0.01)
		for _, t := range terms {
			f.Add(t)
		}
		b, err := f.MarshalBinary()
		if err != nil {
			return nil
		}
		return b
	})
}

// fetchSummary asks a peer for its summary over the shard-summary extended
// operation; nil means the peer cannot supply one right now.
func (sh *Sharded) fetchSummary(m shard.Member) *bloom.Filter {
	pe, err := sh.s.acquire(m.URL.ServiceKey(), m.URL)
	if err != nil {
		return nil
	}
	resp, err := pe.c.Extended(shard.OIDShardSummary, nil)
	if err != nil {
		sh.s.evict(pe)
		sh.s.release(pe)
		return nil
	}
	sh.s.release(pe)
	if err := resp.Result.Err(); err != nil {
		return nil
	}
	f, err := bloom.UnmarshalBinary(resp.Value)
	if err != nil {
		return nil
	}
	return f
}
