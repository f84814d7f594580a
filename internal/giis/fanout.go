package giis

import (
	"slices"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/shard"
)

// Fanout is the directory's one chained fan-out: every hop a Strategy plan
// fetches, whatever it does, is begun by the search's own goroutine as
// pipelined ops on the pooled child connections, bounded, hedged, and
// streamed to the client as the replies come.
type Fanout struct {
	// MaxFanout bounds the hops in flight per search; zero means
	// DefaultMaxFanout and one is a sequential walk. Excess hops wait for
	// one in flight to end.
	MaxFanout int
	// HedgeDeadline is the soft deadline for child replies, measured on
	// the directory's clock: when it expires, the replies received so far
	// are returned and the result is marked partial, instead of the whole
	// search blocking on a slow or partitioned child. Zero waits for every
	// child (the pre-hedge behaviour).
	HedgeDeadline time.Duration
}

// DefaultMaxFanout bounds chained concurrency when MaxFanout is unset.
const DefaultMaxFanout = 16

// hop is one unit of fan-out work — the query put to the first of targets
// that answers — and where the fan-out is with it.
type hop struct {
	// targets are tried in order until one answers: a single child, or a
	// partition key's owners in ring order (if the primary is down its
	// replica still answers: the K-replication availability argument).
	targets []Child
	act     act // what the hop does with its target
	// peer: the targets are ring peers, asked by shard-local sub-query and
	// counted as peer queries, whose summaries come by extended operation.
	peer bool
	// prune: before the fetch, the target's Bloom summary may drop the hop
	// as an empty reply; fetching the summary is one of the hop's ops.
	prune bool

	ctx     *searchContext
	call    ldap.Call // its Done is the hop itself (CallEnded)
	wait    wait
	target  int  // targets[target] is asked
	retried bool // a failure of the target was retried once
	tested  bool // the summary has been tested
	taken   bool // the reply has been taken
	pe      *poolEntry
	req     ldap.SearchRequest
	// cache is what the fetch goes through; fill and sums, the fills it leads or joined.
	cache *qcache.Cache
	fill  *qcache.Fill[[]*ldap.Entry]
	sums  *qcache.Fill[*bloom.Filter]
	sp    *obs.Span // a traced fetch's chain span
	start time.Time

	// The reply: entries (see fetched; an indexed subtree's whole, which the
	// search evaluates as it takes it); partial, the child is a directory
	// that could not reach one of its providers; err, no target answered.
	entries []*ldap.Entry
	partial bool
	err     error
}

// wait is what a hop waits for: a pool dial, its op, or a fill.
type wait uint8

const (
	waitNone wait = iota
	waitDial
	waitOp
	waitFill
)

// child is the target the hop asks now.
func (h *hop) child() *Child { return &h.targets[h.target] }

// summarizing: the hop's summary is still to be fetched or tested.
func (h *hop) summarizing() bool { return h.prune && !h.tested }

// CallEnded resumes h from its op.
func (h *hop) CallEnded(*ldap.Call) { h.resume() }

// resume carries h on from what it waited for, on the goroutine that ended
// the wait — so a fill h leads ends when its op does, whatever the search's
// own goroutine is doing — and hands h to the search once it has its reply.
func (h *hop) resume() {
	if h.ctx.advance(h) {
		h.ctx.done <- h
	}
}

// childHops wraps each child as a single-target hop doing a.
func childHops(children []Child, a act) []hop {
	hops := make([]hop, len(children))
	for i := range children {
		hops[i].targets, hops[i].act = children[i:i+1], a
	}
	return hops
}

// run chains the search to every hop and merges the replies to the client.
// A non-nil dups turns DN dedup on (replicated partitions answer twice),
// counting what it drops.
//
// The search's goroutine begins up to MaxFanout hops, each answered at once
// when its cache holds its reply, and takes the others as they are handed
// back with theirs (resume). Hops still in flight when the hedge or the size
// limit ends the search finish by themselves; hops not begun are dropped.
func (f Fanout) run(ctx *searchContext, hops []hop, dups *obs.Counter) ldap.Result {
	if len(hops) == 0 {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	s := ctx.Server
	s.hFanout.ObserveValue(int64(len(hops)))
	// An indexed subtree holds every attribute, so its entries are projected
	// on the way out.
	ctx.projected = s.strategy.act != actIndex && slices.Equal(ctx.Op.Attributes, ctx.chainAttrs)
	ctx.qc = s.qc
	if _, ok := ldap.FindControl(ctx.controls, ldap.OIDPersistentSearch); ok {
		ctx.qc = nil
	}
	width := f.MaxFanout
	if width <= 0 {
		width = DefaultMaxFanout
	}
	ctx.width = min(width, len(hops))

	// A size limit imposes a global order on which entries are kept, so
	// replies buffer and sort before streaming; otherwise each hop's reply
	// streams to the client the moment it arrives (in the hop's own sorted
	// order, for determinism).
	ordered := ctx.Op.SizeLimit > 0
	var buffered []*ldap.Entry
	var seen map[string]struct{}
	if dups != nil {
		seen = map[string]struct{}{}
	}
	unreachable, hedged, incomplete := false, false, false
	deliver := func(entries []*ldap.Entry, partial, indexed bool) error {
		incomplete = incomplete || partial
		if indexed {
			entries = ctx.evaluate(entries)
		}
		if seen != nil {
			entries = dropSeen(seen, entries, dups)
		}
		if ordered {
			buffered = append(buffered, entries...)
			return nil
		}
		return ctx.sendAll(entries)
	}
	take := func(h *hop) error {
		h.taken = true
		if h.err != nil {
			// A failed or partitioned child must not block the others
			// (§2.2); we return what is reachable.
			unreachable = true
			return nil
		}
		return deliver(h.entries, h.partial, h.act == actIndex)
	}

	var err error
	var hedge <-chan time.Time
	next, inflight := 0, 0
loop:
	for err == nil && (next < len(hops) || inflight > 0) {
		if next < len(hops) && inflight < ctx.width {
			h := &hops[next]
			next++
			if h.ctx, h.call.Done = ctx, h; ctx.advance(h) {
				err = take(h)
			} else {
				inflight++
			}
			continue
		}
		if hedge == nil && f.HedgeDeadline > 0 {
			hedge = s.clock.After(f.HedgeDeadline)
		}
		select {
		case h := <-ctx.done:
			inflight--
			err = take(h)
		case <-hedge:
			hedged = true
			s.HedgeFired.Inc()
			// An index hop not answered yet gets its child's subtree however
			// old: "as much ... information as is available" (§2.2); one in
			// flight still refills the index.
			for i := range hops {
				if h, t := &hops[i], &hops[i].targets[0]; h.act == actIndex && !h.taken && err == nil {
					var kb [256]byte
					key := hopRegion(t, t.Suffix, ldap.ScopeWholeSubtree, nil, false).AppendKey(kb[:0], nil, 0)
					if entries, ok := s.strategy.index.LookupStale(key); ok {
						markHop(ctx.trace, t, qcache.OutcomeStale)
						err = deliver(entries, false, true)
					}
				}
			}
			break loop
		}
	}
	if err != nil {
		return sizeOrUnavailable(err)
	}
	ldap.SortEntries(buffered)
	if err := ctx.sendAll(buffered); err != nil {
		return sizeOrUnavailable(err)
	}
	switch {
	case hedged:
		return partialResult("hedge deadline expired before all providers replied")
	case unreachable:
		return partialResult("some providers unreachable")
	case incomplete:
		return partialResult("some providers answered incompletely")
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// advance carries h as far as it goes without waiting: it reports that h
// has its reply, or leaves h waiting on something that resumes it.
func (c *searchContext) advance(h *hop) bool {
	s := c.Server
	for {
		w := h.wait
		h.wait = waitNone
		var err error
		switch {
		case w == waitNone:
			return c.begin(h)
		case w == waitDial && h.call.Err == nil:
			return c.sendOp(h)
		case w == waitFill && h.summarizing():
			if sum, _, _ := h.sums.Wait(); c.test(h, sum) {
				return true
			}
			continue
		case w == waitFill:
			entries, passed, e := h.fill.Wait()
			markHop(c.trace, h.child(), qcache.OutcomeCoalesced)
			if err = e; e == nil {
				h.entries, h.partial = entries, passed
				return true
			}
		default: // the op ended, or the dial failed
			err = h.call.Err
			switch h.call.Result.Code {
			case ldap.ResultSuccess, ldap.ResultNoSuchObject: // none of the region there: an empty reply
			case ldap.ResultSizeLimitExceeded: // the child truncated: its entries still count
			default:
				err = h.call.Result.Err()
			}
			if h.pe != nil {
				if err != nil {
					s.evict(h.pe)
				}
				s.release(h.pe)
				h.pe = nil
			}
			if err != nil && w == waitOp && !h.retried {
				// The pooled connection may have been severed by a healed
				// partition: ask once more, on a fresh dial.
				h.retried = true
				return c.open(h)
			}
			h.retried = false
			c.closeOp(h, err)
			if h.summarizing() {
				sum := h.summary(err)
				h.sums.Keep(sum, s.clock.Now().Add(s.strategy.ttl))
				if c.test(h, sum) {
					return true
				}
				continue
			}
			if err == nil {
				return c.fetched(h)
			}
			if h.cache != nil {
				if entries, how, _ := h.fill.Fail(err); how == qcache.OutcomeStale {
					markHop(c.trace, h.child(), how)
					h.entries = entries
					return true
				}
			}
		}
		if h.target++; h.target == len(h.targets) {
			h.err = err
			return true
		}
	}
}

// begin begins h's summary, while it has one to test, or its fetch from
// the current target: answered at once from the cache, or left waiting on a
// fill another search leads there, or on the op it sends.
func (c *searchContext) begin(h *hop) bool {
	s, t := c.Server, h.child()
	if h.summarizing() {
		key := t.service()
		sum, fill, how := s.strategy.summaries.Claim([]byte(key), key)
		switch h.sums = fill; how {
		case qcache.OutcomeCoalesced:
			return c.await(h, fill.OnDone)
		case qcache.OutcomeMiss:
			// Not through the query cache: a summary is its own cache.
			h.cache, h.req = nil, ldap.SearchRequest{BaseDN: t.baseText(t.Suffix), Scope: ldap.ScopeWholeSubtree}
			return c.open(h)
		}
		if c.test(h, sum) {
			return true
		}
	}
	if h.peer {
		s.strategy.PeerQueries.Inc()
		if h.target > 0 {
			s.strategy.PeerFailovers.Inc()
		}
	}
	// A child that truncates at the size limit reports sizeLimitExceeded
	// to the directory, which keeps the entries and loses the code: asking
	// for one entry more lets the ordered sender see the overflow itself.
	base, scope, filter, attrs, limit := c.Base, c.Op.Scope, c.Op.Filter, c.chainAttrs, c.Op.SizeLimit
	if limit > 0 {
		limit++
	}
	h.cache = c.qc
	if h.act == actIndex {
		base, scope, filter, attrs, limit, h.cache = t.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0, s.strategy.index
	}
	childBase, childScope, ok := translateRegion(base, scope, t)
	if !ok {
		return true
	}
	if h.cache != nil {
		region := hopRegion(t, childBase, childScope, filter, h.peer)
		var kb [256]byte
		entries, fill, how := h.cache.Claim(region.AppendKey(kb[:0], attrs, limit), region.Owner)
		switch h.fill = fill; how {
		case qcache.OutcomeHit:
			markHop(c.trace, t, how)
			h.entries = entries
			return true
		case qcache.OutcomeCoalesced:
			return c.await(h, fill.OnDone)
		}
	}
	h.req = ldap.SearchRequest{BaseDN: t.baseText(childBase), Scope: childScope, Filter: filter,
		Attributes: attrs, SizeLimit: limit}
	return c.open(h)
}

// test takes h's summary: it reports (and counts) that sum proves the target
// holds no entry with every term of the conjunctive query (none fails open).
func (c *searchContext) test(h *hop, sum *bloom.Filter) bool {
	h.tested = true
	for _, term := range c.terms {
		if sum != nil && !sum.Test(term) {
			c.Server.strategy.BloomSkipped.Inc()
			return true
		}
	}
	return false
}

// await has h wait for a fill another search leads.
func (c *searchContext) await(h *hop, onDone func(func())) bool {
	h.wait = waitFill
	c.handBack()
	onDone(h.resume)
	return false
}

// handBack makes the channel hops are handed back on, room for all in flight.
func (c *searchContext) handBack() {
	if c.done == nil {
		c.done = make(chan *hop, c.width)
	}
}

// open begins h's op — its chain span and latency clock start once per
// target — on the pooled connection, or has a pool miss dialled first.
func (c *searchContext) open(h *hop) bool {
	s := c.Server
	c.handBack()
	if !h.retried && c.trace.id != "" && !h.summarizing() {
		h.sp = c.trace.span.Child("chain:" + h.child().URL.String())
	}
	if !h.retried && (s.hChainChild != nil || h.sp != nil) {
		h.start = s.clock.Now()
	}
	if h.pe, _ = s.borrow(h.child().service()); h.pe != nil { // else dial reports a closed directory
		return c.sendOp(h)
	}
	h.wait = waitDial
	s.dial(h)
	return false
}

// sendOp starts h's op on its borrowed connection.
func (c *searchContext) sendOp(h *hop) bool {
	h.wait = waitOp
	if h.summarizing() && h.peer {
		h.pe.c.Start(&h.call, &ldap.ExtendedRequest{OID: shard.OIDShardSummary}, nil)
		return false
	}
	var ctls []ldap.Control
	if h.peer {
		ctls = shardLocal
	}
	if h.sp != nil { // the child reports its span tree on its done message
		ctls = append(slices.Clip(ctls), ldap.NewTraceControl(c.trace.id, c.trace.depth+1))
	}
	c.Server.ChainedOps.Inc()
	h.pe.c.Start(&h.call, &h.req, ctls)
	return false
}

// closeOp ends h's op: its latency is observed, and a traced fetch's span
// takes the child's spans and ends.
func (c *searchContext) closeOp(h *hop, err error) {
	if s := c.Server; s.hChainChild != nil {
		s.hChainChild.Observe(s.clock.Now().Sub(h.start))
	}
	if h.sp != nil {
		if t, ok := ldap.TraceSpans(h.call.DoneControls); ok {
			h.sp.Graft(t.Spans)
		}
		if err != nil {
			h.sp.SetNote("error: " + err.Error())
		}
		h.sp.End()
		h.sp = nil
	}
}

// fetched takes the reply h's op brought, in the view's names and sorted —
// once, here, so a reply the cache keeps is sent by every later hit as it
// lies — and ends the fill the hop leads with it.
func (c *searchContext) fetched(h *hop) bool {
	t := h.child()
	entries := h.call.Entries
	if t.grafted() {
		// The child's entries are immutable snapshots, so each one that
		// changes name gets a shell of its own around the same attributes.
		entries = make([]*ldap.Entry, len(h.call.Entries))
		for i, e := range h.call.Entries {
			if rel, ok := e.DN.RelativeTo(t.Suffix); ok {
				e = e.WithDN(rel.Under(t.ViewSuffix))
			}
			entries[i] = e
		}
	}
	ldap.SortEntries(entries)
	// Only a directory's flag is taken up: a provider it could not reach
	// this time, which asking again can cure, so the reply is passed to the
	// fill's joiners and not kept. A GRIS flags a backend that declines the
	// query's scope, a fixed property of the query.
	partial := t.MDSType == "giis" && isPartial(h.call.Result)
	switch {
	case h.cache == nil:
	case partial:
		h.fill.Pass(entries)
	default: // never to outlive the registration that produced it
		h.cache.Keep(h.fill, entries, t.ExpiresAt)
	}
	h.entries, h.partial = entries, partial
	return true
}

// summary is the Bloom summary h's op brought — a peer's, over the
// shard-summary extended operation, or one built from a child's subtree —
// or nil, kept like one so the target is not asked again on every search.
func (h *hop) summary(err error) *bloom.Filter {
	if err != nil {
		return nil
	}
	if h.peer {
		var resp *ldap.ExtendedResponse
		if h.call.Reply != nil {
			resp, _ = h.call.Reply.Op.(*ldap.ExtendedResponse)
		}
		if resp == nil || resp.Result.Err() != nil {
			return nil
		}
		f, _ := bloom.UnmarshalBinary(resp.Value) // nil for a summary it cannot read
		return f
	}
	if h.targets[0].MDSType == "giis" && isPartial(h.call.Result) {
		// One built from a subtree that is missing a provider would rule
		// that provider out.
		return nil
	}
	f := bloom.New(BloomBits, 4)
	for _, e := range h.call.Entries {
		for _, a := range e.Attributes() {
			for _, v := range a.Values {
				f.Add(shard.Key(a.Name, v))
			}
		}
	}
	return f
}

// dropSeen returns the entries whose DN is new to seen.
func dropSeen(seen map[string]struct{}, entries []*ldap.Entry, dups *obs.Counter) []*ldap.Entry {
	fresh := make([]*ldap.Entry, 0, len(entries))
	for _, e := range entries {
		k := e.DN.Normalize()
		if _, dup := seen[k]; dup {
			dups.Inc()
			continue
		}
		seen[k] = struct{}{}
		fresh = append(fresh, e)
	}
	return fresh
}

// sendAll streams entries as they lie, honouring the size limit.
func (c *searchContext) sendAll(entries []*ldap.Entry) error {
	for _, e := range entries {
		if err := c.send(e); err != nil {
			return err
		}
	}
	return nil
}
