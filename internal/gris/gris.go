// Package gris implements the Grid Resource Information Service of §10.3:
// the standard, configurable information-provider framework. A GRIS owns a
// namespace suffix, authenticates and parses each incoming GRIP request,
// dispatches it to the local information providers whose namespaces
// intersect the query scope, merges and filters their results, and returns
// them to the client. Per-provider caching with configurable TTL bounds
// intrusiveness; filtering happens in the GRIS — never in the provider —
// so cached supersets can serve narrower queries correctly.
package gris

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/softstate"
)

// Query carries the evaluated search parameters to a backend. Base/Scope
// describe the region of the GRIS namespace being searched; Filter may be
// used by backends with non-enumerable namespaces to direct generation
// (e.g. the NWS backend extracts endpoint names from it).
type Query struct {
	Base   ldap.DN
	Scope  ldap.Scope
	Filter *ldap.Filter
	Now    time.Time
	// Span, when the originating request is traced, is the parent span for
	// per-backend fetch spans. Nil (the common case) disables span
	// recording; all span operations are no-ops on nil.
	Span *obs.Span
}

// ErrScopeTooWide is returned by backends over non-enumerable namespaces
// when the query does not pin down the parameters needed to generate
// entries (§4.1: such providers "might signal an error and/or return
// partial results for searches that use too wide a scope").
var ErrScopeTooWide = errors.New("gris: query scope too wide for parametric namespace")

// Backend is one pluggable information source (§10.3's provider API). All
// DNs a backend returns are absolute (under the GRIS suffix).
type Backend interface {
	// Name identifies the backend in configuration and statistics.
	Name() string
	// Suffix is the subtree (absolute DN) this backend serves.
	Suffix() ldap.DN
	// Attributes enumerates the attribute names this backend can produce,
	// used for search pruning; nil means unknown (never pruned).
	Attributes() []string
	// CacheTTL is how long this backend's results stay fresh; zero
	// disables caching (each query invokes the provider).
	CacheTTL() time.Duration
	// Entries produces the backend's current objects. Implementations may
	// return a superset of what matches (the GRIS re-filters) but must
	// cover the query. They must not mutate returned entries afterward.
	Entries(q *Query) ([]*ldap.Entry, error)
}

// Config assembles a Server.
type Config struct {
	// Suffix is the GRIS's namespace root, e.g. "hn=hostX, o=center1".
	Suffix ldap.DN
	// Clock drives caching and subscriptions; nil means wall clock.
	Clock softstate.Clock
	// Policy controls information visibility (nil: everything open).
	Policy *gsi.Policy
	// Keys + Trust enable GSI mutual authentication on SASL binds; nil
	// Trust accepts only anonymous/simple binds.
	Keys  *gsi.KeyPair
	Trust *gsi.TrustStore
	// TrustedDirectories lists subjects granted the §7 trusted-directory
	// role.
	TrustedDirectories []string
	// PollInterval paces persistent-search re-evaluation (push mode);
	// zero defaults to 2s.
	PollInterval time.Duration
	// Extensions maps extended-operation OIDs to handlers — the §6 "GRIP
	// extension" point ("an information provider that interfaces to a
	// large archive might implement protocol extensions to support richer
	// relational queries").
	Extensions map[string]Extension
	// Obs, when non-nil, surfaces the server's counters (queries,
	// invocations, cache hit/miss/coalesce) under gris_* series.
	Obs *obs.Registry
	// WarmGrace bounds how long rounds handed to Restore may serve before
	// a live provider invocation is forced; zero (or a value above the
	// backend TTL) grants the full TTL from restore time.
	WarmGrace time.Duration
}

// Extension handles one GRIP extended operation.
type Extension func(req *ldap.Request, value []byte) ([]byte, error)

// Server is a GRIS: an ldap.Handler wired to a set of backends.
type Server struct {
	ldap.BaseHandler

	cfg   Config
	clock softstate.Clock

	// backends is copy-on-write: Register installs a new slice under mu, and
	// a query reads whichever one is current without a lock or a copy.
	mu       sync.Mutex
	backends atomic.Pointer[[]Backend]

	// rounds holds each cacheable backend's current round by backend name,
	// fresh until fetch time plus the backend's CacheTTL. It is unbounded:
	// a registered backend's round is never evicted. Concurrent misses of
	// one backend share a single provider invocation.
	rounds *qcache.Table[*ldap.Store]
	// journal, when set (Observe, under mu), is told every completed round.
	journal func(backend string, entries []*ldap.Entry)

	// Stats
	Queries     obs.Counter
	Invocations obs.Counter // provider executions
	CacheHits   obs.Counter
	CacheMisses obs.Counter // lookups that found no fresh cache entry
	// Coalesced counts queries that joined an in-progress provider
	// invocation instead of stampeding the backend.
	Coalesced obs.Counter

	sasl *gsi.SASLBinder
}

// newRound indexes one provider round: built once per refresh (or
// Restore), published whole and never written again, so an enquiry
// reads the old round or the new one, never a blend. Entries are keyed by
// DN — of two entries with one DN the later wins.
func newRound(entries []*ldap.Entry) *ldap.Store {
	round := ldap.NewStore()
	// Backends never mutate what they returned, so it is adopted, not
	// copied. No schema: cannot fail.
	_ = round.Adopt(entries)
	return round
}

// New creates a GRIS.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = softstate.RealClock{}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	s := &Server{cfg: cfg, clock: cfg.Clock}
	s.rounds = qcache.NewTable[*ldap.Store](qcache.TableConfig{Clock: cfg.Clock,
		Counters: qcache.Counters{Coalesced: &s.Coalesced}})
	if cfg.Keys != nil && cfg.Trust != nil {
		s.sasl = gsi.NewSASLBinder(cfg.Keys, cfg.Trust, cfg.Clock.Now, cfg.TrustedDirectories)
	}
	if cfg.Obs != nil {
		cfg.Obs.RegisterCounter("gris_queries_total", &s.Queries)
		cfg.Obs.RegisterCounter("gris_provider_invocations_total", &s.Invocations)
		cfg.Obs.RegisterCounter("gris_cache_hits_total", &s.CacheHits)
		cfg.Obs.RegisterCounter("gris_cache_misses_total", &s.CacheMisses)
		cfg.Obs.RegisterCounter("gris_stampede_coalesced_total", &s.Coalesced)
	}
	return s
}

// Suffix returns the namespace root this GRIS serves.
func (s *Server) Suffix() ldap.DN { return s.cfg.Suffix }

// Register plugs a backend into the GRIS (configuration "can be done
// either dynamically or statically", §10.3).
func (s *Server) Register(b Backend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := append(slices.Clip(s.registered()), b)
	s.backends.Store(&next)
}

// registered returns the current backend set; it is never written.
func (s *Server) registered() []Backend {
	if p := s.backends.Load(); p != nil {
		return *p
	}
	return nil
}

// Backends returns the registered backend names.
func (s *Server) Backends() []string {
	backends := s.registered()
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.Name()
	}
	return out
}

// Restore prefills the round table with recovered rounds, keyed by backend
// name (persist.Manager.Recover calls it at boot, before serving). Each
// cacheable registered backend with a recovered round starts with it
// cached, fresh for min(WarmGrace, TTL) before it rolls over to a live
// invocation on the normal expiry path: a restarted GRIS answers from its
// last completed rounds instead of a cold stampede of provider
// invocations. It returns the number of entries restored.
func (s *Server) Restore(rounds map[string][]*ldap.Entry) int {
	now := s.clock.Now()
	total := 0
	for _, b := range s.registered() {
		entries, ok := rounds[b.Name()]
		ttl := b.CacheTTL()
		if !ok || ttl <= 0 {
			continue // nothing recovered, or uncacheable: always invoked live
		}
		grace := s.cfg.WarmGrace
		if grace <= 0 || grace > ttl {
			grace = ttl
		}
		round := newRound(entries)
		s.rounds.Put(b.Name(), b.Name(), round, now.Add(grace))
		total += round.Len()
	}
	return total
}

// Observe installs the journal that every later completed provider round
// is handed to, with the backend's name (persist.Manager.Attach calls it,
// after Restore, so restored rounds are not journaled again). The journal
// runs while the backend's fill is still in flight — one at a time per
// backend, in fill order — and must only encode and enqueue.
func (s *Server) Observe(journal func(backend string, entries []*ldap.Entry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = journal
}

// FlushCache drops all cached provider results.
func (s *Server) FlushCache() { s.rounds.Flush() }

// principal extracts the policy principal recorded at bind time.
func principal(req *ldap.Request) *gsi.Principal {
	if req == nil || req.State == nil {
		return nil
	}
	p, _ := req.State.Identity().(*gsi.Principal)
	return p
}

// Bind implements anonymous, simple-refused, and GSI SASL binds.
func (s *Server) Bind(req *ldap.Request, op *ldap.BindRequest) *ldap.BindResponse {
	switch {
	case op.SASLMech == "" && op.Name == "" && op.Password == "":
		return &ldap.BindResponse{Result: ldap.Result{Code: ldap.ResultSuccess}}
	case op.SASLMech == gsi.SASLMechanism:
		return s.bindGSI(req, op)
	default:
		return &ldap.BindResponse{Result: ldap.Result{
			Code:    ldap.ResultAuthMethodNotSupported,
			Message: "GRIS supports anonymous or SASL/GSI binds",
		}}
	}
}

func (s *Server) bindGSI(req *ldap.Request, op *ldap.BindRequest) *ldap.BindResponse {
	if s.sasl == nil {
		return &ldap.BindResponse{Result: ldap.Result{
			Code: ldap.ResultAuthMethodNotSupported, Message: "GSI not configured"}}
	}
	step, err := s.sasl.Step(req.State, op.SASLCreds)
	if err != nil {
		return &ldap.BindResponse{Result: ldap.Result{
			Code: ldap.ResultInvalidCredentials, Message: err.Error()}}
	}
	if step.Challenge != nil {
		return &ldap.BindResponse{
			Result:      ldap.Result{Code: ldap.ResultSaslBindInProgress},
			ServerCreds: step.Challenge,
		}
	}
	req.State.SetIdentity(step.Principal.Subject, step.Principal)
	return &ldap.BindResponse{Result: ldap.Result{Code: ldap.ResultSuccess}}
}

// Extended dispatches configured GRIP extension operations.
func (s *Server) Extended(req *ldap.Request, op *ldap.ExtendedRequest) *ldap.ExtendedResponse {
	handler, ok := s.cfg.Extensions[op.OID]
	if !ok {
		return &ldap.ExtendedResponse{Result: ldap.Result{Code: ldap.ResultProtocolError,
			Message: "unsupported extended operation " + op.OID}}
	}
	out, err := handler(req, op.Value)
	if err != nil {
		return &ldap.ExtendedResponse{OID: op.OID, Result: ldap.Result{
			Code: ldap.ResultUnwillingToPerform, Message: err.Error()}}
	}
	return &ldap.ExtendedResponse{OID: op.OID, Value: out,
		Result: ldap.Result{Code: ldap.ResultSuccess}}
}

// rootDSE is the server's self-description, served for a base search at the
// empty DN as real LDAP servers do. It advertises the namespace suffix and
// every supported protocol extension — the §6 "service publication"
// mechanism by which a provider "can indicate that this protocol is
// supported".
func (s *Server) rootDSE() *ldap.Entry {
	e := ldap.NewEntry(ldap.DN{}).
		Add("objectclass", "top").
		Add("vendorname", "mds2").
		Add("mdstype", "gris").
		Add("namingcontexts", s.cfg.Suffix.String()).
		Add("supportedcontrol", ldap.OIDPersistentSearch).
		Add("supportedsaslmechanisms", gsi.SASLMechanism)
	for oid := range s.cfg.Extensions {
		e.Add("supportedextension", oid)
	}
	return e
}

// Search implements GRIP enquiry, discovery, and (with the persistent
// search control) subscription.
func (s *Server) Search(req *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	s.Queries.Inc()
	base, err := op.Base()
	if err != nil {
		return ldap.Result{Code: ldap.ResultProtocolError, Message: err.Error()}
	}
	if base.IsZero() && op.Scope == ldap.ScopeBaseObject {
		dse := s.rootDSE()
		if op.Filter == nil || op.Filter.Matches(dse) {
			if err := w.SendEntry(dse.Select(op.Attributes)); err != nil {
				return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
			}
		}
		return ldap.Result{Code: ldap.ResultSuccess}
	}
	// The searched region must intersect our suffix.
	if !regionsIntersect(base, op.Scope, s.cfg.Suffix) {
		return ldap.Result{Code: ldap.ResultNoSuchObject, MatchedDN: s.cfg.Suffix.String()}
	}
	p := principal(req)
	if s.cfg.Policy != nil {
		sample := ldap.NewEntry(s.cfg.Suffix)
		if !s.cfg.Policy.FilterAuthorized(p, op.Filter, sample) {
			return ldap.Result{Code: ldap.ResultInsufficientAccessRights,
				Message: "filter references restricted attributes"}
		}
	}
	if _, isPS := ldap.FindControl(req.Controls, ldap.OIDPersistentSearch); isPS {
		return s.persistentSearch(req, op, base, w, p)
	}
	// With no policy to hide entries the size limit is pushed into the cache
	// lookups; one entry past it keeps the overflow visible to the send loop.
	limit := int64(0)
	if s.cfg.Policy == nil && op.SizeLimit > 0 {
		limit = op.SizeLimit + 1
	}
	var found [8]*ldap.Entry // an enquiry's answer, without an allocation
	entries, partial := s.evaluate(found[:0], Query{Base: base, Scope: op.Scope, Filter: op.Filter,
		Now: s.clock.Now(), Span: req.Span}, op.Plan(), limit)
	sent := int64(0)
	for _, e := range entries {
		visible := s.redact(p, e, op)
		if visible == nil {
			continue
		}
		if op.SizeLimit > 0 && sent >= op.SizeLimit {
			return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
		}
		if err := w.SendEntry(visible); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
		sent++
	}
	res := ldap.Result{Code: ldap.ResultSuccess}
	if partial {
		res.Message = "partial results: some providers require narrower scope"
	}
	return res
}

// redact applies policy and attribute selection, returning nil when the
// entry is hidden from this principal.
func (s *Server) redact(p *gsi.Principal, e *ldap.Entry, op *ldap.SearchRequest) *ldap.Entry {
	visible := e
	if s.cfg.Policy != nil {
		visible = s.cfg.Policy.Redact(p, e)
		if visible == nil {
			return nil
		}
	}
	if !op.TypesOnly {
		// Nothing below writes to the entry: a cached snapshot goes to the
		// writer as it is, sharing its values.
		return visible.Project(op.Attributes)
	}
	out := visible.Select(op.Attributes)
	attrs := out.Attributes()
	for i := range attrs {
		attrs[i].Values = nil
	}
	return out
}

// evaluate runs the query, whose filter cf is compiled, against all
// intersecting backends, and appends the matches to out in SortEntries
// order; a positive limit lets each cached backend stop after its first
// limit matches. It reports whether any backend declined or failed.
func (s *Server) evaluate(out []*ldap.Entry, q Query, cf *ldap.Compiled, limit int64) ([]*ldap.Entry, bool) {
	first := len(out)
	ordered := true // out[first:] is in SortEntries order
	partial := false
	for _, b := range s.registered() {
		if !regionsIntersect(q.Base, q.Scope, b.Suffix()) {
			continue
		}
		if pruneByAttributes(q.Filter, b.Attributes()) {
			continue
		}
		var sp *obs.Span // nil unless traced: the span name is built only then
		if q.Span != nil {
			sp = q.Span.Child("backend:" + b.Name())
		}
		next, sorted, err := s.fetch(out, b, q, cf, limit, sp)
		sp.End()
		if err != nil {
			// A provider that fails or declines the scope (ErrScopeTooWide)
			// must not prevent results from others (§2.2 robustness).
			partial = true
			continue
		}
		// A single contributor's order stands; a second one forces a merge.
		if len(out) == first {
			ordered = sorted
		} else if len(next) > len(out) {
			ordered = false
		}
		out = next
	}
	if !ordered {
		ldap.SortEntries(out[first:])
	}
	return out, partial
}

// fetch returns the backend's entries that answer q, and whether they are
// in SortEntries order. Cached results are supersets processed per-request
// ("cached providers can maximize their performance by returning a superset
// of results that are then processed out of the cache", §10.3) — out of an
// indexed snapshot, so a narrow query reads its postings, not every cached
// entry. Backends with zero TTL, or parametric backends (whose output
// depends on the filter), are invoked every time and filtered inline.
// Concurrent misses of an expired TTL coalesce into one provider invocation
// (refresh), or every TTL boundary under load would stampede the backend.
// fetch appends the entries to out.
func (s *Server) fetch(out []*ldap.Entry, b Backend, q Query, cf *ldap.Compiled, limit int64, sp *obs.Span) ([]*ldap.Entry, bool, error) {
	ttl := b.CacheTTL()
	if ttl <= 0 {
		s.Invocations.Inc()
		sp.SetNote("invoke")
		invoked := q // the backend's own copy: only an invocation makes one
		entries, err := b.Entries(&invoked)
		for _, e := range entries {
			if e.DN.WithinScope(q.Base, q.Scope) && cf.Matches(e) {
				out = append(out, e)
			}
		}
		return out, false, err
	}
	round, err := s.round(b, q.Now, ttl, sp)
	if err != nil {
		return out, false, err
	}
	out, _ = round.AppendCompiled(out, q.Base, q.Scope, cf, limit)
	return out, true, nil
}

// round returns the backend's fresh round, invoking the backend once per
// expiry no matter how many queries miss concurrently: the first miss
// becomes the flight leader and runs the provider; the rest wait on the
// flight and share its result, counting as a miss and then a hit.
func (s *Server) round(b Backend, now time.Time, ttl time.Duration, sp *obs.Span) (*ldap.Store, error) {
	name := b.Name()
	round, how, err := s.rounds.GetOrFill(name, name, func() (*ldap.Store, time.Time, error) {
		s.Invocations.Inc()
		sp.SetNote("miss,invoke")
		// Cacheable backends are queried for their full subtree so the cache
		// is a superset serving any narrower query.
		entries, err := b.Entries(&Query{Base: b.Suffix(), Scope: ldap.ScopeWholeSubtree, Now: now})
		if err != nil {
			return nil, time.Time{}, err
		}
		round := newRound(entries)
		s.mu.Lock()
		journal := s.journal
		s.mu.Unlock()
		if journal != nil {
			journal(name, entries)
		}
		return round, now.Add(ttl), nil
	})
	switch how {
	case qcache.OutcomeHit:
		s.CacheHits.Inc()
		sp.SetNote("hit")
	case qcache.OutcomeCoalesced:
		s.CacheMisses.Inc()
		sp.SetNote("miss,coalesced")
		if err == nil {
			s.CacheHits.Inc()
		}
	default:
		s.CacheMisses.Inc()
	}
	return round, err
}

// persistentSearch implements push-mode GRIP on a GRIS by periodic
// re-evaluation: entries whose content changed (or appeared) since the last
// round are streamed to the subscriber, and an entry that left the result
// goes out once more, as last seen, marked deleted. This supplies the §6
// "push mode" delivery model.
func (s *Server) persistentSearch(req *ldap.Request, op *ldap.SearchRequest,
	base ldap.DN, w ldap.SearchWriter, p *gsi.Principal) ldap.Result {

	psCtl, _ := ldap.FindControl(req.Controls, ldap.OIDPersistentSearch)
	ps, err := ldap.ParsePersistentSearch(psCtl)
	if err != nil {
		return ldap.Result{Code: ldap.ResultProtocolError, Message: err.Error()}
	}
	type seenEntry struct {
		fp string // content fingerprint
		e  *ldap.Entry
	}
	last := map[string]seenEntry{} // normalized DN -> the entry last seen there
	send := func(e *ldap.Entry, changeType int64) error {
		visible := s.redact(p, e, op)
		if visible == nil {
			return nil
		}
		var controls []ldap.Control
		if ps.ReturnECs {
			controls = append(controls, ldap.NewEntryChangeControl(changeType))
		}
		return w.SendEntry(visible, controls...)
	}
	first, cf := true, op.Plan()
	for {
		entries, partial := s.evaluate(nil, Query{Base: base, Scope: op.Scope, Filter: op.Filter, Now: s.clock.Now()}, cf, 0)
		seen := map[string]bool{}
		for _, e := range entries {
			key := e.DN.Normalize()
			seen[key] = true
			fp := fingerprint(e)
			prev, existed := last[key]
			if existed && prev.fp == fp {
				continue
			}
			last[key] = seenEntry{fp, e}
			changeType := ldap.ChangeModify
			if !existed {
				changeType = ldap.ChangeAdd
			}
			if first && ps.ChangesOnly {
				continue // baseline suppressed; only subsequent changes flow
			}
			if ps.ChangeTypes&changeType == 0 {
				continue
			}
			if err := send(e, changeType); err != nil {
				return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
			}
		}
		// A round a provider failed says nothing of its entries: only a
		// complete one deletes.
		for key, prev := range last {
			if seen[key] || partial {
				continue
			}
			delete(last, key)
			if ps.ChangeTypes&ldap.ChangeDelete == 0 {
				continue
			}
			if err := send(prev.e, ldap.ChangeDelete); err != nil {
				return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
			}
		}
		first = false
		select {
		case <-req.Ctx.Done():
			return ldap.Result{Code: ldap.ResultSuccess, Message: "subscription abandoned"}
		case <-s.clock.After(s.cfg.PollInterval):
		}
	}
}

func fingerprint(e *ldap.Entry) string {
	cp := e.Clone()
	cp.SortAttrs()
	var b strings.Builder
	for _, a := range cp.Attributes() {
		b.WriteString(strings.ToLower(a.Name))
		b.WriteByte('=')
		for _, v := range a.Values {
			b.WriteString(v)
			b.WriteByte('|')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// regionsIntersect reports whether a search region (base+scope) can contain
// entries under suffix. True when suffix lies inside the region or the base
// lies inside suffix's subtree.
func regionsIntersect(base ldap.DN, scope ldap.Scope, suffix ldap.DN) bool {
	return base.WithinScope(suffix, ldap.ScopeWholeSubtree) || suffix.WithinScope(base, scope)
}

// pruneByAttributes reports whether the filter provably cannot match any
// entry this backend produces: it requires (conjunctively) an attribute the
// backend never emits. Backends advertising nil attributes are never pruned.
func pruneByAttributes(f *ldap.Filter, backendAttrs []string) bool {
	if f == nil || backendAttrs == nil {
		return false
	}
	have := map[string]bool{"objectclass": true}
	for _, a := range backendAttrs {
		have[strings.ToLower(a)] = true
	}
	return !satisfiable(f, have)
}

// satisfiable conservatively decides whether f could match an entry whose
// attributes come only from `have`. Negations are treated as always
// satisfiable (an absent attribute satisfies them).
func satisfiable(f *ldap.Filter, have map[string]bool) bool {
	switch f.Kind {
	case ldap.FilterAnd:
		for _, sub := range f.Subs {
			if !satisfiable(sub, have) {
				return false
			}
		}
		return true
	case ldap.FilterOr:
		for _, sub := range f.Subs {
			if satisfiable(sub, have) {
				return true
			}
		}
		return false
	case ldap.FilterNot:
		return true
	default:
		return have[strings.ToLower(f.Attr)]
	}
}
