package giis

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/shard"
)

// searchContext carries one data search through the strategy. It holds
// nothing of the client's *ldap.Request, which the connection reuses once
// the search returns, while a hop the hedge cut off still finishes: what
// the plan reads of the request is copied here when the search starts.
type searchContext struct {
	Server *Server
	Op     *ldap.SearchRequest
	W      ldap.SearchWriter
	Base   ldap.DN

	// controls are the request's controls (they belong to the decoded
	// message, not the Request), and trace its trace identity.
	controls []ldap.Control
	trace    hopTrace

	sent *int64 // starts at the number of local entries already sent

	// chainAttrs is the attribute selection a hop chains downstream: the
	// normalized form of Op.Attributes the query cache keys by, so a cached
	// reply is the same whichever spelling of the selection filled it.
	chainAttrs []string
	// projected: the children were asked for exactly Op.Attributes (it is
	// already in chainAttrs' form), so their replies go out as they came in
	// and send does not look inside them.
	projected bool

	// qc is the query cache chained hops go through: nil when it is off or
	// the search is persistent.
	qc *qcache.Cache
	// terms are the filter's equality terms a Bloom summary is tested
	// against, set when the plan prunes; filter is the compiled filter an
	// indexed subtree is evaluated with, set when the plan indexes.
	terms  []string
	filter *ldap.Compiled

	// width bounds the fan-out's hops in flight; done is where they are
	// handed back with their replies.
	width int
	done  chan *hop
}

// send streams one translated entry, honouring the size limit. The entry is
// a shared snapshot — wire-backed when it was chained — and leaves as one:
// unless the children already applied the client's selection, the writer
// projects it (ldap.SendProjected), which is the one thing on the relay
// path that decodes a wire-backed entry.
func (c *searchContext) send(e *ldap.Entry) error {
	if c.Op.SizeLimit > 0 && *c.sent >= c.Op.SizeLimit {
		return errSizeLimit
	}
	*c.sent++
	if c.projected {
		return c.W.SendEntry(e)
	}
	return ldap.SendProjected(c.W, e, c.Op.Attributes)
}

// inRegion returns the children the search region can touch, in Children()
// order, with current deadlines: a walk of the view tree, which costs what
// it returns.
func (c *searchContext) inRegion() []Child {
	return c.Server.table.region(c.Base, c.Op.Scope)
}

// evaluate returns the entries of an indexed subtree that the search
// region and filter select.
func (c *searchContext) evaluate(entries []*ldap.Entry) []*ldap.Entry {
	kept := make([]*ldap.Entry, 0, len(entries))
	for _, e := range entries {
		if e.DN.WithinScope(c.Base, c.Op.Scope) && c.filter.Matches(e) {
			kept = append(kept, e)
		}
	}
	return kept
}

// StrategyConfig is what NewStrategy needs to build a preset. Each field
// mirrors a flag of the giis command.
type StrategyConfig struct {
	// CacheTTL bounds the cache preset's subtree index and every Bloom
	// summary (the bloom preset's per child, the sharded preset's per peer);
	// zero means DefaultCacheTTL.
	CacheTTL time.Duration
	// Fanout bounds every preset that fetches: chain, cache, bloom, sharded.
	Fanout Fanout
	// Ring ("id=url,id=url,..."), ShardID, Replicas and ShardMode ("proxy"
	// or "referral") configure sharded.
	Ring      string
	ShardID   string
	Replicas  int
	ShardMode string
}

// DefaultCacheTTL is the CacheTTL the giis command and the topology format
// start from.
const DefaultCacheTTL = 30 * time.Second

// BloomBits sizes each child summary of the bloom preset.
const BloomBits = 1 << 16

// act is what a hop does with its target.
type act uint8

const (
	actChain act = iota // chain the query and relay the reply
	actIndex            // evaluate the query over the target's indexed subtree
	actRefer            // name the target to the client as a referral
)

// presets is the one table from strategy names to plans: the giis command's
// -strategy flag and the topology format's strategy key both resolve
// through it, and no other plan can be built.
var presets = []struct {
	name  string
	act   act  // what a child hop does
	prune bool // child hops are pruned by their subtree summaries
	ring  bool // peers on a shard ring are targets too
}{
	{name: "chain"},
	{name: "cache", act: actIndex},
	{name: "referral", act: actRefer},
	{name: "bloom", prune: true},
	{name: "sharded", ring: true},
}

// StrategyNames lists the names NewStrategy accepts, joined by " | ".
func StrategyNames() string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return strings.Join(names, " | ")
}

// Strategy is how a directory answers data searches — the configurable
// behaviours of §10.4 — as one plan over three choices, fixed by the preset
// NewStrategy builds:
//
//   - Targets: the children the search region can touch. On a shard ring,
//     the routed local children plus one hop per remote partition key
//     (failing over through the key's owners) or per scatter peer; a peer's
//     shard-local sub-query gets the local children only.
//   - Prune: a hop whose target's Bloom summary rules the query out is
//     skipped (§5.1): the bloom preset's child hops by each child's subtree
//     summary, the ring's scatter peers by each peer's namespace summary.
//   - Act, per hop: chain the query to the target and relay its reply
//     ("simply forwarded on to the appropriate information provider"), refer
//     the client to it ("using the referral mechanisms"), or evaluate it over
//     a per-child index of the target's whole subtree (the §3 relational
//     aggregate directory, trading freshness for query cost).
//
// Every hop that is not referred goes through the one fan-out (Fanout.run),
// bounded, hedged and streamed, whatever it does.
type Strategy struct {
	name   string
	fanout Fanout
	ttl    time.Duration // bounds the subtree index and every summary
	act    act           // what a child hop does
	prune  bool          // child hops are pruned by their subtree summaries
	ring   *ring         // nil unless sharded

	// index holds each child's whole subtree (cache preset). It serves a
	// stale subtree when the child cannot be reached — "users should have
	// as much partial or even inconsistent information as is available"
	// (§2.2) — and keeps no subtree the child flags incomplete.
	index *qcache.Cache
	// summaries holds the Bloom summaries of hop targets, children's and
	// peers' alike, by the target's service key (nil: the target could not
	// supply one).
	summaries *qcache.Table[*bloom.Filter]

	// Stats, registered when the server has an obs registry: BloomSkipped as
	// giis_bloom_skipped_total, the ring's under giis_shard_*.
	BloomSkipped     obs.Counter // hops pruned by a summary
	RoutableSearches obs.Counter // searches routed to owners only
	ScatterSearches  obs.Counter // searches scattered ring-wide
	PeerQueries      obs.Counter // chained sub-queries sent to peers
	PeerFailovers    obs.Counter // owner failures absorbed by a replica
	PeerReferrals    obs.Counter // peer referral URLs returned to clients
	DupDropped       obs.Counter // duplicate entries dropped by DN dedup
}

// NewStrategy builds the preset the table names.
func NewStrategy(name string, c StrategyConfig) (*Strategy, error) {
	for _, p := range presets {
		if p.name != name {
			continue
		}
		st := &Strategy{name: name, fanout: c.Fanout, ttl: c.CacheTTL, act: p.act, prune: p.prune}
		if st.ttl <= 0 {
			st.ttl = DefaultCacheTTL
		}
		var err error
		if p.ring {
			st.ring, err = newRing(c)
		}
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	return nil, fmt.Errorf("giis: unknown strategy %q (want %s)", name, StrategyNames())
}

// Name is the preset's name, as -strategy spells it.
func (st *Strategy) Name() string { return st.name }

// Entries returns a snapshot of every indexed entry across all children,
// the corpus specialized services (e.g. the matchmaker extension) evaluate
// against; nil unless the preset indexes.
func (st *Strategy) Entries() []*ldap.Entry {
	if st.index == nil {
		return nil
	}
	out := st.index.Entries()
	ldap.SortEntries(out)
	return out
}

// attach gives the strategy its owning server before first use.
func (st *Strategy) attach(s *Server) {
	if st.act == actIndex {
		st.index = qcache.New(qcache.Config{Name: "giis_index", Clock: s.clock, TTL: st.ttl,
			// An empty child subtree is as expensive to re-fetch as a full
			// one: negative results keep the full index TTL.
			NegTTL: st.ttl, ServeStale: true, Obs: s.cfg.Obs})
		s.table.caches = append(s.table.caches, st.index)
	}
	if st.prune || st.ring != nil {
		st.summaries = qcache.NewTable[*bloom.Filter](qcache.TableConfig{Clock: s.clock})
		s.table.caches = append(s.table.caches, st.summaries)
		s.cfg.Obs.RegisterCounter("giis_bloom_skipped_total", &st.BloomSkipped) // a nil registry ignores it
	}
	if st.ring != nil {
		st.joinRing(s)
	}
}

// search plans a data search and carries the plan out: the hops that fetch
// go through the fan-out, then the client is referred to the rest — instead
// of data, or for a ring's peers beside it.
func (st *Strategy) search(ctx *searchContext) ldap.Result {
	var hops []hop
	var dups *obs.Counter
	if st.ring != nil {
		// Replicated partitions answer twice.
		hops, dups = st.ringHops(ctx), &st.DupDropped
	} else {
		hops = childHops(ctx.inRegion(), st.act)
	}
	if st.prune {
		if ctx.terms = shard.QueryTerms(ctx.Op.Filter, nil); len(ctx.terms) > 0 {
			for i := range hops {
				hops[i].prune = true
			}
		}
	}
	if st.act == actIndex {
		ctx.filter = ctx.Op.Plan()
	}
	// Referring hops come last: a ring refers its peers, never its children.
	n := len(hops)
	for n > 0 && hops[n-1].act == actRefer {
		n--
	}
	res := st.fanout.run(ctx, hops[:n], dups)
	if n == len(hops) || res.Code != ldap.ResultSuccess {
		return res
	}
	urls := referrals(ctx, hops[n:])
	if st.ring != nil {
		st.PeerReferrals.Add(int64(len(urls)))
	}
	if len(urls) > 0 {
		if err := ctx.W.SendReferral(urls...); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	res.Referrals = urls
	return res
}

// referrals is the one referral builder: one URL per distinct target of
// hops, naming the region in the target's namespace and carrying its scope
// when translation changed it — a one-level search from above narrows to a
// base search at a child's suffix, and a client re-issuing it one-level
// there would get the child's children instead (RFC 4511 §4.5.3). All the
// owners of a partition key are named: the client dedups what they both
// return, and a replica covers a primary that is down.
func referrals(ctx *searchContext, hops []hop) []string {
	var urls []string
	seen := map[string]bool{}
	for i := range hops {
		for j := range hops[i].targets {
			t := &hops[i].targets[j]
			base, scope, ok := translateRegion(ctx.Base, ctx.Op.Scope, t)
			if !ok {
				continue
			}
			url := t.URL.WithDN(base)
			if scope != ctx.Op.Scope {
				url = url.WithScope(scope)
			}
			if u := url.String(); !seen[u] {
				seen[u] = true
				urls = append(urls, u)
			}
		}
	}
	return urls
}

// ring is the sharded preset's place on a consistent-hash ring that splits
// the registration namespace, each registration kept by replicas owners.
// Registrations for keys this member does not own are refused at the
// soft-state registry, which is what bounds per-node resident entries near
// N·replicas/members.
type ring struct {
	planner *shard.Planner // its Suffix is the server's, set when it attaches
	refer   bool           // referral mode: peers are referred to, not chained
	// routes is the routing index over the local child set and localSummary
	// this member's own Bloom summary, served to peers over the
	// shard-summary extended operation.
	routes       memo[shardRoutes]
	localSummary memo[[]byte]
}

// newRing reads the sharded preset's settings.
func newRing(c StrategyConfig) (*ring, error) {
	members, err := shard.ParseRing(c.Ring)
	if err != nil {
		return nil, fmt.Errorf("giis: strategy sharded needs -shard-ring: %w", err)
	}
	hashRing := shard.NewRing(members, 0)
	if _, ok := hashRing.Member(c.ShardID); !ok {
		return nil, fmt.Errorf("giis: strategy sharded needs -shard-id naming a ring member, got %q", c.ShardID)
	}
	refer := c.ShardMode == "referral"
	if !refer && c.ShardMode != "proxy" {
		return nil, fmt.Errorf("giis: unknown shard mode %q (want proxy | referral)", c.ShardMode)
	}
	replicas := c.Replicas
	if replicas < 1 {
		replicas = 2
	}
	return &ring{planner: shard.NewPlanner(hashRing, c.ShardID, replicas, nil, nil), refer: refer}, nil
}

func (st *Strategy) joinRing(s *Server) {
	r := st.ring
	r.planner.Suffix = s.cfg.Suffix
	s.receiver.Registry.SetOwns(func(_ string, payload any) bool {
		m, ok := payload.(*grrp.Message)
		return ok && r.planner.OwnsRegistration(m.SuffixDN)
	})
	// Serve this member's summary to peers, from the server's own extension
	// map (New).
	s.cfg.Extensions[shard.OIDShardSummary] = func(*ldap.Request, []byte) ([]byte, error) {
		return st.localSummaryBytes(s), nil
	}
	reg := s.cfg.Obs // a nil registry ignores what is registered
	reg.RegisterCounter("giis_shard_routable_total", &st.RoutableSearches)
	reg.RegisterCounter("giis_shard_scatter_total", &st.ScatterSearches)
	reg.RegisterCounter("giis_shard_peer_queries_total", &st.PeerQueries)
	reg.RegisterCounter("giis_shard_peer_failovers_total", &st.PeerFailovers)
	reg.RegisterCounter("giis_shard_peer_referrals_total", &st.PeerReferrals)
	reg.RegisterCounter("giis_shard_dup_dropped_total", &st.DupDropped)
	registry := s.receiver.Registry
	reg.CounterFunc("giis_shard_not_owned_total", func() int64 { return int64(registry.NotOwnedTotal()) })
}

// memo holds a value derived from the newest child-table generation it was
// asked for. A newer generation's value is built under the lock, once; a
// caller from an older generation gets the newer value.
type memo[V any] struct {
	mu  sync.Mutex
	gen uint64 // zero: nothing held (table generations start at one)
	val V
}

func (m *memo[V]) get(gen uint64, build func() V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if gen > m.gen {
		m.val, m.gen = build(), gen
	}
	return m.val
}

// shardRoutes is the key-routed view of the local child set. It holds the
// records, so a route read after a refresh still sees the new deadline.
type shardRoutes struct {
	byKey    map[string][]*childRec
	wildcard []*childRec // records whose suffix carries no partition key
}

// shardLocal marks a sub-query as one peer asking another (shared and
// read-only: chains copy it before appending trace controls).
var shardLocal = []ldap.Control{{OID: shard.OIDShardLocal}}

// ringHops is the ring's targets: the local children the region can touch,
// then one hop per remote partition key the query names, failing over
// through the key's owners, or, for a query that names none, one per other
// member, pruned by its summary. A peer's sub-query carries the shard-local
// control and gets the local children only: this one-hop rule is what
// terminates proxy chains on a ring.
func (st *Strategy) ringHops(ctx *searchContext) []hop {
	r := st.ring
	plan := r.planner.Plan(ctx.Base, ctx.Op.Filter)
	var local []Child
	if plan.Routable {
		// Read the key index and check only the children it names: an owner
		// holding hundreds of thousands of residents pays for what the
		// region holds, not for its partition.
		recs, gen := ctx.Server.table.records()
		routes := r.routes.get(gen, func() shardRoutes {
			routes := shardRoutes{byKey: map[string][]*childRec{}}
			for _, rec := range recs {
				if key, keyed := r.planner.RegistrationKeyDN(rec.Suffix); keyed {
					routes.byKey[key] = append(routes.byKey[key], rec)
				} else {
					routes.wildcard = append(routes.wildcard, rec)
				}
			}
			return routes
		})
		var cands []*childRec
		for _, k := range plan.Keys {
			cands = append(cands, routes.byKey[k]...)
		}
		for _, rec := range append(cands, routes.wildcard...) {
			if _, _, ok := translateRegion(ctx.Base, ctx.Op.Scope, &rec.Child); ok {
				local = append(local, rec.child())
			}
		}
	} else {
		local = ctx.inRegion()
	}
	hops := childHops(local, actChain)
	if _, ok := ldap.FindControl(ctx.controls, shard.OIDShardLocal); ok {
		return hops
	}

	// Peers share this directory's suffix, so region translation and DN
	// grafting are identity.
	peerHop := func(members ...shard.Member) hop {
		h := hop{targets: make([]Child, len(members)), act: actChain, peer: true}
		if r.refer {
			h.act = actRefer
		}
		for i, m := range members {
			h.targets[i] = Child{URL: m.URL, Suffix: r.planner.Suffix, ViewSuffix: r.planner.Suffix, MDSType: "giis"}
		}
		return h
	}
	if plan.Routable {
		st.RoutableSearches.Inc()
		for _, key := range plan.Keys {
			if owners := plan.OwnersFor(key); len(owners) > 0 {
				hops = append(hops, peerHop(owners...))
			}
		}
		return hops
	}
	st.ScatterSearches.Inc()
	if !r.refer {
		ctx.terms = shard.QueryTerms(ctx.Op.Filter, shard.DefaultSummaryAttrs)
	}
	for _, m := range plan.Remote {
		h := peerHop(m)
		h.prune = len(ctx.terms) > 0
		hops = append(hops, h)
	}
	return hops
}

// localSummaryBytes renders this member's Bloom summary of its children's
// namespace terms.
func (st *Strategy) localSummaryBytes(s *Server) []byte {
	s.sweep()
	recs, gen := s.table.records()
	return st.ring.localSummary.get(gen, func() []byte {
		var terms []string
		for _, rec := range recs {
			terms = append(terms, shard.SuffixTerms(rec.Suffix)...)
		}
		f := bloom.NewForCapacity(len(terms), 0.01)
		for _, t := range terms {
			f.Add(t)
		}
		b, _ := f.MarshalBinary()
		return b
	})
}
