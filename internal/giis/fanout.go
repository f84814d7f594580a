package giis

import (
	"slices"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
)

// Fanout is the directory's one chained fan-out, embedded by every chaining
// strategy (Chaining, BloomRouted, Sharded). The strategies differ only in
// which hops they select; the bounded worker pool, the hedge deadline, the
// reply-collect loop and the sender below are shared.
type Fanout struct {
	// MaxFanout bounds concurrent chained requests per search; zero means
	// DefaultMaxFanout and one is a sequential walk. Excess hops queue for a
	// free worker, so a directory with hundreds of children no longer spawns
	// a goroutine and connection burst per query.
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

// hop is one unit of fan-out work: the query chained to the first of
// targets that answers.
type hop struct {
	// targets are tried in order until one answers: a single child, or a
	// partition key's owners in ring order (if the primary is down its
	// replica still answers, which is the K-replication availability
	// argument).
	targets []Child
	// extra controls ride on the chained request.
	extra []ldap.Control
	// skip, when set, runs on the worker before the first attempt; true
	// drops the hop as an empty reply. Bloom pruning lives here rather than
	// in the selector so a cold summary fetch is bounded and hedged like
	// any other chained request.
	skip func() bool
	// attempt, when set, observes each try (n counts from zero).
	attempt func(n int)
}

// childHops wraps each child as a single-target hop.
func childHops(children []Child) []hop {
	hops := make([]hop, len(children))
	for i := range children {
		hops[i].targets = children[i : i+1]
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
}

// run chains the search to every hop and merges the replies to the client.
// A non-nil dups turns DN dedup on (replicated partitions answer twice),
// counting what it drops.
//
// Hops the query cache can answer are answered first, on the search's own
// goroutine: a hit never blocks, so it is sent (or buffered, under a size
// limit) inline with its trace marker span, and only the misses get workers,
// channels and the hedge deadline. A hop with a skip check or an attempt
// hook (failover targets, peer accounting), and every hop of a persistent
// search, goes to a worker as it is.
func (f Fanout) run(ctx *SearchContext, hops []hop, dups *obs.Counter) ldap.Result {
	if len(hops) == 0 {
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	s := ctx.Server
	s.hFanout.ObserveValue(int64(len(hops)))
	ctx.projected = slices.Equal(ctx.Op.Attributes, ctx.chainAttrs)

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

	var stack [16]int
	misses := stack[:0] // the hops left to the workers, by index
	probe := s.qc != nil && !isPersistentSearch(ctx.Req)
	for i := range hops {
		h := &hops[i]
		if probe && h.skip == nil && h.attempt == nil && len(h.targets) == 1 {
			if r, ok := s.cached(ctx, &h.targets[0], h.extra); ok {
				if err := take(r); err != nil {
					return sizeOrUnavailable(err)
				}
				continue
			}
		}
		misses = append(misses, i)
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
					replies <- s.runHop(ctx, &hops[i])
				}
			}()
		}

		var hedge <-chan time.Time
		if f.HedgeDeadline > 0 {
			hedge = s.clock.After(f.HedgeDeadline)
		}
	collect:
		for done := 0; done < len(misses); done++ {
			select {
			case r := <-replies:
				if err := take(r); err != nil {
					return sizeOrUnavailable(err)
				}
			case <-hedge:
				hedged = true
				s.HedgeFired.Inc()
				break collect
			}
		}
	}
	if err := ctx.sendSorted(buffered); err != nil {
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

// runHop chains the search to the hop's targets in order until one answers.
func (s *Server) runHop(ctx *SearchContext, h *hop) (r hopReply) {
	if h.skip != nil && h.skip() {
		return hopReply{}
	}
	limit := hopLimit(ctx.Op)
	for n, target := range h.targets {
		if h.attempt != nil {
			h.attempt(n)
		}
		r = s.chain(ctx.Req, target, ctx.Base, ctx.Op.Scope, ctx.Op.Filter,
			ctx.chainAttrs, limit, h.extra)
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

// sendSorted streams entries in DN order, honouring the size limit.
func (c *SearchContext) sendSorted(entries []*ldap.Entry) error {
	ldap.SortEntries(entries)
	return c.sendAll(entries)
}

// sendAll streams entries as they lie, honouring the size limit.
func (c *SearchContext) sendAll(entries []*ldap.Entry) error {
	for _, e := range entries {
		if err := c.send(e); err != nil {
			return err
		}
	}
	return nil
}

// refer answers with continuation references instead of (or, for a sharded
// directory, beside) data: urls go out as one referral and on the result.
func (c *SearchContext) refer(res ldap.Result, urls []string) ldap.Result {
	if len(urls) > 0 {
		if err := c.W.SendReferral(urls...); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	res.Referrals = urls
	return res
}

// rulesOut reports (and counts on skipped) that the source behind key
// provably holds no entry carrying every term: a conjunctive query can match
// only if each equality term is (possibly) present. fetch fills a missing or
// expired summary, kept for ttl; it returns nil when the source cannot
// supply one, which is kept like a summary, so a down source is not
// re-dialled for its summary on every search. No summary fails open.
func (s *Server) rulesOut(summaries *qcache.Table[*bloom.Filter], ttl time.Duration, key string,
	terms []string, skipped *obs.Counter, fetch func() *bloom.Filter) bool {
	if len(terms) == 0 {
		return false
	}
	f, _, _ := summaries.GetOrFill(key, key, func() (*bloom.Filter, time.Time, error) {
		f := fetch()
		return f, s.clock.Now().Add(ttl), nil
	})
	if f == nil {
		return false
	}
	for _, t := range terms {
		if !f.Test(t) {
			skipped.Inc()
			return true
		}
	}
	return false
}
