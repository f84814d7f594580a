package giis

import (
	"fmt"
	"strings"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/shard"
)

// SearchContext carries one data search through a strategy.
type SearchContext struct {
	Server *Server
	Req    *ldap.Request
	Op     *ldap.SearchRequest
	W      ldap.SearchWriter
	Base   ldap.DN

	sent *int64 // starts at the number of local entries already sent

	// chainAttrs is the attribute selection a hop chains downstream: the
	// normalized form of Op.Attributes the query cache keys by, so a cached
	// reply is the same whichever spelling of the selection filled it.
	chainAttrs []string
	// projected: the children were asked for exactly Op.Attributes (it is
	// already in chainAttrs' form), so their replies go out as they came in
	// and send does not look inside them.
	projected bool
}

// send streams one translated entry, honouring the size limit. The entry is
// a shared snapshot — wire-backed when it was chained — and leaves as one:
// unless the children already applied the client's selection, the writer
// projects it (ldap.SendProjected), which is the one thing on the relay
// path that decodes a wire-backed entry.
func (c *SearchContext) send(e *ldap.Entry) error {
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
func (c *SearchContext) inRegion() []Child {
	return c.Server.table.region(c.Base, c.Op.Scope)
}

// Strategy is the pluggable search handling of §10.4.
type Strategy interface {
	// Name identifies the strategy in configuration and experiments.
	Name() string
	// Search answers the data portion of a query.
	Search(ctx *SearchContext) ldap.Result
	// attach gives the strategy its owning server before first use.
	attach(s *Server)
}

// StrategyConfig is what the strategy table needs to build a strategy by
// name. Each field mirrors a flag of the giis command.
type StrategyConfig struct {
	// CacheTTL bounds the cache strategy's index, the bloom strategy's
	// summaries and the sharded strategy's peer summaries.
	CacheTTL time.Duration
	// Fanout bounds the chaining strategies: chain, bloom and sharded.
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

// BloomBits sizes each bloom-routed child summary.
const BloomBits = 1 << 16

// strategies is the one table from strategy names to strategies: the giis
// command's -strategy flag and the topology format's strategy key both
// resolve through it.
var strategies = []struct {
	name  string
	build func(StrategyConfig) (Strategy, error)
}{
	{"chain", func(c StrategyConfig) (Strategy, error) { return &Chaining{Fanout: c.Fanout}, nil }},
	{"cache", func(c StrategyConfig) (Strategy, error) { return NewCachedIndex(c.CacheTTL), nil }},
	{"referral", func(StrategyConfig) (Strategy, error) { return NewReferral(), nil }},
	{"bloom", func(c StrategyConfig) (Strategy, error) {
		b := NewBloomRouted(c.CacheTTL, BloomBits)
		b.Fanout = c.Fanout
		return b, nil
	}},
	{"sharded", newShardedStrategy},
}

// StrategyNames lists the names NewStrategy accepts, joined by " | ".
func StrategyNames() string {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.name
	}
	return strings.Join(names, " | ")
}

// NewStrategy builds the strategy the table names.
func NewStrategy(name string, c StrategyConfig) (Strategy, error) {
	for _, s := range strategies {
		if s.name == name {
			return s.build(c)
		}
	}
	return nil, fmt.Errorf("giis: unknown strategy %q (want %s)", name, StrategyNames())
}

// Chaining forwards requests to every live child whose namespace
// intersects the query region and merges results — the simple aggregate
// directory MDS-2.1 ships (§10.4: "GRIP requests directed to the GIIS are
// simply forwarded on to the appropriate information provider").
//
// The fan-out is bounded and hedged (see Fanout): at most MaxFanout chained
// requests run concurrently, child replies stream to the client as they
// arrive (no full-barrier merge), and an optional hedge deadline cuts the
// search off at a bounded latency with whatever has arrived rather than
// waiting on the slowest or partitioned child.
type Chaining struct {
	Fanout
}

// NewChaining returns the default strategy (bounded fan-out, no hedge
// deadline).
func NewChaining() *Chaining { return &Chaining{} }

// Name implements Strategy.
func (c *Chaining) Name() string { return "chaining" }

func (c *Chaining) attach(*Server) {}

// Search implements Strategy.
func (c *Chaining) Search(ctx *SearchContext) ldap.Result {
	return c.run(ctx, childHops(ctx.inRegion()), nil)
}

// CachedIndex maintains a local copy of each child's entries, refreshed
// through GRIP when stale — the §3 "relational aggregate directory" that
// "follows up each registration with a GRIP query to determine its
// properties". Queries are answered entirely from the index, trading
// freshness for query cost (experiment E4/E6 territory: "tradeoffs between
// the power of an index, the cost associated with maintaining it, and its
// freshness").
type CachedIndex struct {
	// TTL bounds index staleness; stale children are re-fetched on demand.
	TTL time.Duration

	s *Server
	// qc is the per-child entry-set cache, ServeStale for the §2.2
	// partition behaviour.
	qc *qcache.Cache
}

// NewCachedIndex returns a cached-index strategy with the given freshness
// bound.
func NewCachedIndex(ttl time.Duration) *CachedIndex {
	return &CachedIndex{TTL: ttl}
}

// Name implements Strategy.
func (c *CachedIndex) Name() string { return "cached-index" }

func (c *CachedIndex) attach(s *Server) {
	c.s = s
	c.qc = qcache.New(qcache.Config{
		Name:  "giis_index",
		Clock: s.clock,
		TTL:   c.TTL,
		// An empty child subtree is as expensive to re-fetch as a full one:
		// negative results keep the full index TTL.
		NegTTL:     c.TTL,
		ServeStale: true,
		Obs:        s.cfg.Obs,
	})
	s.table.caches = append(s.table.caches, c.qc)
}

// Search implements Strategy.
func (c *CachedIndex) Search(ctx *SearchContext) ldap.Result {
	unreachable, incomplete := false, false
	// Filter before sorting: the index holds every child's full subtree,
	// and sorting the (usually small) matching subset is far cheaper than
	// sorting the corpus. The filter compiles once per search so the
	// per-entry match over the whole corpus stays allocation-free.
	cf := ctx.Op.Filter.Compile()
	var matched []*ldap.Entry
	for _, child := range ctx.inRegion() {
		r := c.childEntries(ctx.Req, child)
		if r.err != nil {
			unreachable = true
			continue
		}
		incomplete = incomplete || r.partial
		for _, e := range r.entries {
			if !e.DN.WithinScope(ctx.Base, ctx.Op.Scope) {
				continue
			}
			if !cf.Matches(e) {
				continue
			}
			matched = append(matched, e)
		}
	}
	if err := ctx.sendSorted(matched); err != nil {
		return sizeOrUnavailable(err)
	}
	switch {
	case unreachable:
		return partialResult("some providers unreachable")
	case incomplete:
		return partialResult("some providers answered incompletely")
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// childEntries returns the indexed entry set for one child, re-fetching
// the child's whole subtree when the cached copy has expired. The fetch
// bypasses the server-level query cache (chainUncached) so an entry set is
// never cached twice at different TTLs; ServeStale on the index cache
// keeps serving stale data when the authoritative source is unreachable:
// "users should have as much partial or even inconsistent information as
// is available" (§2.2). A subtree the child itself flags incomplete is
// answered as such — or from the stale copy, if there is one — and never
// becomes the index.
func (c *CachedIndex) childEntries(req *ldap.Request, child Child) hopReply {
	reg := qcache.Region{
		Owner: child.service(),
		Base:  child.ViewSuffix,
		Scope: ldap.ScopeWholeSubtree,
	}
	entries, _, err := c.qc.GetOrFill(reg.Key(nil, 0), reg, child.ExpiresAt,
		func() ([]*ldap.Entry, error) {
			return c.s.chainUncached(req, child, child.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0).cacheable()
		})
	return uncached(entries, err)
}

// Entries returns a snapshot of every indexed entry across all children,
// the corpus specialized services (e.g. the matchmaker extension) evaluate
// against.
func (c *CachedIndex) Entries() []*ldap.Entry {
	out := c.qc.Entries()
	ldap.SortEntries(out)
	return out
}

// Referral returns continuation references instead of data: the client is
// redirected to the authoritative GRIS, which is how a GIIS serves data it
// is not allowed to cache or proxy (§10.4: "we can return the name of the
// information provider directly to the client in the form of a LDAP URL
// using the referral mechanisms").
type Referral struct{}

// NewReferral returns the referral strategy.
func NewReferral() *Referral { return &Referral{} }

// Name implements Strategy.
func (r *Referral) Name() string { return "referral" }

func (r *Referral) attach(*Server) {}

// Search implements Strategy. Each referral names the region in the child's
// namespace, and carries its scope when translation changed it: a one-level
// search from above narrows to a base search at the child's suffix, and a
// client re-issuing it one-level there would get the child's children
// instead (RFC 4511 §4.5.3).
func (r *Referral) Search(ctx *SearchContext) ldap.Result {
	var urls []string
	for _, child := range ctx.inRegion() {
		base, scope, _ := translateRegion(ctx.Base, ctx.Op.Scope, &child)
		url := child.URL.WithDN(base)
		if scope != ctx.Op.Scope {
			url = url.WithScope(scope)
		}
		urls = append(urls, url.String())
	}
	return ctx.refer(ldap.Result{Code: ldap.ResultSuccess}, urls)
}

// BloomRouted chains like Chaining but first consults per-child Bloom
// summaries of the child's attribute terms, skipping children that provably
// cannot match conjunctive equality terms of the filter — the §5.1 lossy
// aggregation alternative (after the Service Discovery Service). False
// positives cost a wasted chained query; false negatives cannot occur.
type BloomRouted struct {
	Fanout
	// TTL bounds summary staleness.
	TTL time.Duration
	// Bits sizes each summary (experiment E5 sweeps this).
	Bits uint64

	// summaries maps child service keys to their term filters (nil: the
	// child could not supply one).
	summaries *qcache.Table[*bloom.Filter]

	// SkippedChildren counts chains avoided by summary misses.
	SkippedChildren obs.Counter
}

// NewBloomRouted returns the Bloom-routed chaining strategy.
func NewBloomRouted(ttl time.Duration, bits uint64) *BloomRouted {
	return &BloomRouted{TTL: ttl, Bits: bits}
}

// Name implements Strategy.
func (b *BloomRouted) Name() string { return "bloom-routed" }

func (b *BloomRouted) attach(s *Server) {
	b.summaries = qcache.NewTable[*bloom.Filter](qcache.TableConfig{Clock: s.clock})
	s.table.caches = append(s.table.caches, b.summaries)
	if s.cfg.Obs != nil {
		s.cfg.Obs.RegisterCounter("giis_bloom_skipped_total", &b.SkippedChildren)
	}
}

// Search implements Strategy.
func (b *BloomRouted) Search(ctx *SearchContext) ldap.Result {
	hops := childHops(ctx.inRegion())
	terms := shard.QueryTerms(ctx.Op.Filter, nil)
	for i := range hops {
		child := &hops[i].targets[0]
		hops[i].skip = func() bool {
			return ctx.Server.rulesOut(b.summaries, b.TTL, child.service(), terms, &b.SkippedChildren,
				func() *bloom.Filter { return b.summarize(ctx.Server, *child) })
		}
	}
	return b.run(ctx, hops, nil)
}

// summarize builds a child's summary from its whole subtree. The fetch
// bypasses the query cache: a summary is its own cache, and the subtree
// under a key no client asks for would only push real results out.
func (b *BloomRouted) summarize(s *Server, child Child) *bloom.Filter {
	r := s.chainUncached(nil, child, child.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0)
	if r.err != nil || r.partial {
		// No summary fails open. One built from a subtree that is missing a
		// provider would rule that provider out.
		return nil
	}
	f := bloom.New(b.Bits, 4)
	for _, e := range r.entries {
		for _, a := range e.Attributes() {
			for _, v := range a.Values {
				f.Add(shard.Key(a.Name, v))
			}
		}
	}
	return f
}
