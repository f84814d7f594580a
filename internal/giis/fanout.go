package giis

import (
	"slices"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/obs"
)

// Fanout is the directory's one chained fan-out: every hop a Strategy plan
// fetches, whatever it does, goes through the bounded worker pool, the hedge
// deadline, the reply-collect loop and the sender below.
type Fanout struct {
	// MaxFanout bounds concurrent chained requests per search; zero means
	// DefaultMaxFanout and one is a sequential walk. Excess hops queue for a
	// free worker.
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

// hop is one unit of fan-out work: the query put to the first of targets
// that answers.
type hop struct {
	// targets are tried in order until one answers: a single child, or a
	// partition key's owners in ring order (if the primary is down its
	// replica still answers, which is the K-replication availability
	// argument).
	targets []Child
	act     act // what the hop does with its target
	// peer: the targets are ring peers, asked by shard-local sub-query and
	// counted as peer queries; their summaries come over the shard-summary
	// extended operation.
	peer bool
	// prune: on the worker, before the first attempt, the target's Bloom
	// summary may drop the hop as an empty reply, so a cold summary fetch is
	// bounded and hedged like any other chained request.
	prune bool
}

// childHops wraps each child as a single-target hop doing a.
func childHops(children []Child, a act) []hop {
	hops := make([]hop, len(children))
	for i := range children {
		hops[i] = hop{targets: children[i : i+1], act: a}
	}
	return hops
}

type hopReply struct {
	// entries are in SortEntries order: a reply is sorted once, where it is
	// fetched (chainOnce), so a query-cache hit is sent as it lies.
	entries []*ldap.Entry
	// partial: the child is a directory that answered but flagged its own
	// answer incomplete — it could not reach one of its providers.
	partial bool
	err     error
	hop     int // the index of the hop a worker's reply answers
}

// run chains the search to every hop and merges the replies to the client.
// A non-nil dups turns DN dedup on (replicated partitions answer twice),
// counting what it drops.
//
// Hops that can be answered without blocking are answered first, on the
// search's own goroutine — a chained hop the query cache holds (with its
// trace marker span), an index hop whose subtree is fresh — so they are sent
// (or buffered, under a size limit) inline, and only the misses get workers,
// channels and the hedge deadline. A pruned or peer hop, and every chained
// hop of a persistent search, goes to a worker as it is.
func (f Fanout) run(ctx *searchContext, hops []hop, dups *obs.Counter) ldap.Result {
	if len(hops) == 0 {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	s := ctx.Server
	s.hFanout.ObserveValue(int64(len(hops)))
	// An indexed subtree holds every attribute, so its entries are projected
	// on the way out.
	ctx.projected = s.strategy.act != actIndex && slices.Equal(ctx.Op.Attributes, ctx.chainAttrs)

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
	take := func(r hopReply) error {
		if r.err != nil {
			// A failed or partitioned child must not block the others
			// (§2.2); we return what is reachable.
			unreachable = true
			return nil
		}
		incomplete = incomplete || r.partial
		entries := r.entries
		if seen != nil {
			entries = dropSeen(seen, entries, dups)
		}
		if ordered {
			buffered = append(buffered, entries...)
			return nil
		}
		return ctx.sendAll(entries)
	}

	ctx.qc = s.qc
	if _, ok := ldap.FindControl(ctx.controls, ldap.OIDPersistentSearch); ok {
		ctx.qc = nil
	}
	var stack [16]int
	misses := stack[:0] // the hops left to the workers, by index
	for i := range hops {
		h, t := &hops[i], &hops[i].targets[0]
		var r hopReply
		ok := false
		switch {
		case h.act == actIndex:
			r, ok = s.cached(ctx.trace, s.strategy.index, t, t.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0, false)
			r.entries = ctx.evaluate(r.entries)
		case ctx.qc != nil && !h.prune && !h.peer:
			r, ok = s.cached(ctx.trace, ctx.qc, t, ctx.Base, ctx.Op.Scope, ctx.Op.Filter, ctx.chainAttrs, hopLimit(ctx.Op), false)
		}
		if !ok {
			misses = append(misses, i)
		} else if err := take(r); err != nil {
			return sizeOrUnavailable(err)
		}
	}

	if len(misses) > 0 {
		// Both channels are buffered for the full fan-out so workers never
		// block: after a hedge cutoff the search returns immediately and any
		// straggling worker finishes into the buffer and exits.
		jobs := make(chan int, len(misses))
		for _, i := range misses {
			jobs <- i
		}
		close(jobs)
		replies := make(chan hopReply, len(misses))
		workers := f.MaxFanout
		if workers <= 0 {
			workers = DefaultMaxFanout
		}
		if workers > len(misses) {
			workers = len(misses)
		}
		for i := 0; i < workers; i++ {
			go func() {
				for i := range jobs {
					r := s.runHop(ctx, &hops[i])
					r.hop = i
					replies <- r
				}
			}()
		}

		var hedge <-chan time.Time
		var answered []bool // by hop, when an index hop may be cut off
		if f.HedgeDeadline > 0 {
			hedge = s.clock.After(f.HedgeDeadline)
			if s.strategy.act == actIndex {
				answered = make([]bool, len(hops))
			}
		}
	collect:
		for done := 0; done < len(misses); done++ {
			select {
			case r := <-replies:
				if answered != nil {
					answered[r.hop] = true
				}
				if err := take(r); err != nil {
					return sizeOrUnavailable(err)
				}
			case <-hedge:
				hedged = true
				s.HedgeFired.Inc()
				// An index hop still fetching is answered from the subtree
				// the index holds for its child, however old: "as much
				// partial or even inconsistent information as is available"
				// (§2.2), flagged partial by the hedge like the rest.
				for _, i := range misses {
					if hops[i].act != actIndex || answered[i] {
						continue
					}
					t := &hops[i].targets[0]
					if r, ok := s.cached(ctx.trace, s.strategy.index, t, t.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0, true); ok {
						r.entries = ctx.evaluate(r.entries)
						if err := take(r); err != nil {
							return sizeOrUnavailable(err)
						}
					}
				}
				break collect
			}
		}
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

// runHop does what the hop does: an index hop evaluates the search over the
// child's subtree, fetched into the index when it is stale or missing, and
// any other chains to the hop's targets in order until one answers — unless
// its target's summary prunes it first.
func (s *Server) runHop(ctx *searchContext, h *hop) (r hopReply) {
	st := s.strategy
	if h.prune && st.rulesOut(ctx, h) {
		return hopReply{}
	}
	if h.act == actIndex {
		t := h.targets[0]
		r = s.chain(ctx.trace, st.index, t, t.ViewSuffix, ldap.ScopeWholeSubtree, nil, nil, 0, nil)
		r.entries = ctx.evaluate(r.entries)
		return r
	}
	var extra []ldap.Control
	if h.peer {
		extra = shardLocal
	}
	limit := hopLimit(ctx.Op)
	for n, target := range h.targets {
		if h.peer {
			st.PeerQueries.Inc()
			if n > 0 {
				st.PeerFailovers.Inc()
			}
		}
		r = s.chain(ctx.trace, ctx.qc, target, ctx.Base, ctx.Op.Scope, ctx.Op.Filter,
			ctx.chainAttrs, limit, extra)
		if r.err == nil {
			break
		}
	}
	return r
}

// hopLimit is the size limit a hop chains downstream. A child that truncates
// at the limit reports sizeLimitExceeded to the directory, which keeps the
// entries and loses the code; asking for one entry more lets the ordered
// sender see the overflow itself.
func hopLimit(op *ldap.SearchRequest) int64 {
	if op.SizeLimit > 0 {
		return op.SizeLimit + 1
	}
	return op.SizeLimit
}

// dropSeen compacts entries in place to those whose DN is new to seen.
func dropSeen(seen map[string]struct{}, entries []*ldap.Entry, dups *obs.Counter) []*ldap.Entry {
	fresh := entries[:0]
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
