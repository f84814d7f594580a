// Package giis implements the Grid Index Information Service of §10.4: the
// configurable aggregate directory framework. A GIIS accepts GRRP
// registrations (over datagrams or mapped onto LDAP add operations, as in
// MDS-2.1), maintains a soft-state index of child information providers,
// and answers GRIP searches through a configurable search strategy —
// chaining requests to the authoritative providers, serving a locally
// maintained cache index, pruning by lossy Bloom summaries, or returning
// referrals.
//
// A GIIS is itself an information provider: it publishes its own service
// entry, the name index of its children and its monitor (monitor.go), and
// registers up a hierarchy with GRRP to form the Figure 5 discovery tree.
package giis

import (
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"mds2/internal/grip"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/qcache"
	"mds2/internal/shard"
	"mds2/internal/softstate"
)

// Dialer opens a GRIP connection to a child service. Deployments use TCP;
// simulations inject simnet dials.
type Dialer func(url ldap.URL) (*ldap.Client, error)

// TCPDialer dials ldap:// URLs over TCP.
func TCPDialer(url ldap.URL) (*ldap.Client, error) {
	conn, err := net.Dial("tcp", url.Address())
	if err != nil {
		return nil, err
	}
	return ldap.NewClient(conn), nil
}

// Child is one live registered information provider (GRIS or subordinate
// GIIS).
type Child struct {
	// URL is the GRIP endpoint from the registration.
	URL ldap.URL
	// Suffix is the child's own namespace root.
	Suffix ldap.DN
	// ViewSuffix is where the child's namespace appears in this
	// directory's view (Suffix grafted under the GIIS suffix).
	ViewSuffix ldap.DN
	// MDSType is "gris" or "giis".
	MDSType string
	// VO is the VO named in the registration.
	VO string
	// ExpiresAt is the soft-state deadline.
	ExpiresAt time.Time
	// LastRefresh is when the registration was last confirmed by the child
	// (or restored from the durability log — see Recovered).
	LastRefresh time.Time
	// Recovered marks a registration rebuilt from the persistence log after
	// a restart and not yet reconfirmed by a live refresh. The directory
	// serves it within the recovery grace window, but operators can
	// distinguish recovered-but-unconfirmed children on the metrics surface.
	Recovered bool

	// serviceKey is URL.ServiceKey(), and suffix Suffix.String(), rendered
	// once when the child table built the record; empty on a Child made
	// anywhere else (service, baseText).
	serviceKey, suffix string
}

// service returns the child's URL.ServiceKey(): the owner of its query-cache
// keys and the name of its pooled connection.
func (c *Child) service() string {
	if c.serviceKey != "" {
		return c.serviceKey
	}
	return c.URL.ServiceKey()
}

// baseText renders base, a region translateRegion translated for the
// child: Suffix itself, rendered once in the record, or a name below it.
func (c *Child) baseText(base ldap.DN) string {
	if c.suffix != "" && len(base) == len(c.Suffix) {
		return c.suffix
	}
	return base.String()
}

// Config assembles a GIIS.
type Config struct {
	// Name identifies this directory (used in its service entry and
	// self-registration), e.g. "giis.center1".
	Name string
	// Suffix is the directory's namespace root ("o=center1" or
	// "vo=alliance"); children appear grafted beneath it.
	Suffix ldap.DN
	// SelfURL is the GRIP URL other services use to reach this GIIS.
	SelfURL ldap.URL
	// Clock drives soft state; nil means wall clock.
	Clock softstate.Clock
	// Dial opens connections for chained searches; nil means TCP.
	Dial Dialer
	// Strategy answers data searches (a NewStrategy preset); nil means the
	// chain preset.
	Strategy *Strategy
	// Trust is the directory's trust store: with Keys it enables GSI SASL
	// binds from clients and authenticated chaining; with
	// RequireSignedRegistrations it verifies registration signatures.
	Trust *gsi.TrustStore
	// RequireSignedRegistrations refuses GRRP messages lacking a valid
	// signature chained to Trust (§7 registration security).
	RequireSignedRegistrations bool
	// Keys is the directory's own GSI identity: it enables GSI binds from
	// clients and, with AuthChildren, authenticated chaining to providers
	// ("the GIIS can also bind using a trusted server credential", §10.4).
	Keys *gsi.KeyPair
	// TrustedDirectories grants the §7 directory role to authenticated
	// peers (e.g. a parent GIIS chaining through this one).
	TrustedDirectories []string
	// AuthChildren makes every chained connection authenticate with Keys
	// before searching, so providers can apply directory-grade policy.
	AuthChildren bool
	// AcceptVO, when non-empty, admits only registrations naming this VO
	// (§2.3 membership policy).
	AcceptVO string
	// Accept, when set, refines admission after signature checks.
	Accept func(*grrp.Message, *gsi.Credential) bool
	// Extensions maps extended-operation OIDs to handlers, the §6 "GRIP
	// extension" mechanism ("resources may offer additional information
	// delivery capabilities beyond those provided by GRIP"). The bundled
	// matchmaker service plugs in here.
	Extensions map[string]Extension
	// Obs, when non-nil, surfaces directory metrics under giis_* series:
	// search/registration/chain counters, pool evict/close counts, chain
	// fan-out width and per-child latency histograms, hedge fires, and
	// soft-state registry live/expired series. The pooled LDAP clients'
	// UnknownResponses counters aggregate here too.
	Obs *obs.Registry
	// QueryCache enables the per-child-hop query-result cache: chained
	// search results are kept (keyed per child, so one slow or hedged child
	// never poisons another's key) and served to identical queries until
	// min(QueryCacheTTL, the child's soft-state deadline), with early
	// invalidation when a child registration expires or is removed.
	// Persistent-search subscriptions always bypass the cache.
	QueryCache bool
	// QueryCacheTTL bounds cached result freshness (qcache.DefaultTTL when
	// zero).
	QueryCacheTTL time.Duration
	// QueryCacheMax bounds the number of cached keys (qcache.DefaultMax
	// when zero).
	QueryCacheMax int
}

// Extension handles one GRIP extended operation: it receives the request
// value and returns the response value.
type Extension func(req *ldap.Request, value []byte) ([]byte, error)

// Server is a GIIS.
type Server struct {
	ldap.BaseHandler

	cfg      Config
	clock    softstate.Clock
	receiver *grrp.Receiver
	strategy *Strategy

	poolMu sync.Mutex
	pool   map[string]*poolEntry
	closed bool

	// table is the child set and name index, maintained from the registry's
	// transition feed.
	table *childTable
	// monitor roots the monitor subtree: cn=monitor under the suffix.
	monitor ldap.DN

	// Stats
	Registrations obs.Counter // accepted GRRP messages
	Searches      obs.Counter
	ChainedOps    obs.Counter
	// PoolEvictions counts broken child connections unlinked from the pool;
	// PoolCloses counts pooled connections actually closed.
	PoolEvictions obs.Counter
	PoolCloses    obs.Counter
	// HedgeFired counts searches cut off by the chaining hedge deadline.
	HedgeFired obs.Counter

	// unknownClosed accumulates UnknownResponses from pooled clients that
	// have been closed, so the aggregate across the pool's lifetime survives
	// connection churn.
	unknownClosed obs.Counter

	// hChainChild and hFanout are registry-backed histograms (nil — no-op —
	// without Config.Obs): per-child chained search latency and chain
	// fan-out width per search.
	hChainChild *obs.Histogram
	hFanout     *obs.Histogram

	// qc is the per-child-hop query-result cache (nil unless
	// Config.QueryCache); a departed child's keys leave it with the child.
	qc *qcache.Cache

	sasl *gsi.SASLBinder
}

// New creates a GIIS.
func New(cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = softstate.RealClock{}
	}
	if cfg.Dial == nil {
		cfg.Dial = TCPDialer
	}
	if cfg.Strategy == nil {
		cfg.Strategy, _ = NewStrategy("chain", StrategyConfig{})
	}
	// The server adds handlers of its own (a ring member's shard summary):
	// they go in a map of its own, never in the one the caller passed.
	exts := map[string]Extension{}
	maps.Copy(exts, cfg.Extensions)
	cfg.Extensions = exts
	s := &Server{
		cfg:     cfg,
		clock:   cfg.Clock,
		pool:    map[string]*poolEntry{},
		monitor: cfg.Suffix.ChildAVA("cn", "monitor"),
	}
	if cfg.Keys != nil && cfg.Trust != nil {
		s.sasl = gsi.NewSASLBinder(cfg.Keys, cfg.Trust, cfg.Clock.Now, cfg.TrustedDirectories)
	}
	s.receiver = grrp.NewReceiver(cfg.Clock)
	if cfg.RequireSignedRegistrations {
		s.receiver.Trust = cfg.Trust
	}
	s.receiver.Accept = func(m *grrp.Message, cred *gsi.Credential) bool {
		if m.Type != grrp.TypeRegister {
			return false
		}
		if cfg.AcceptVO != "" && m.VO != cfg.AcceptVO {
			return false
		}
		if cfg.Accept != nil && !cfg.Accept(m, cred) {
			return false
		}
		return true
	}
	s.table = newChildTable(&cfg)
	if cfg.QueryCache {
		s.qc = qcache.New(qcache.Config{
			Name:  "giis_query",
			Clock: cfg.Clock,
			TTL:   cfg.QueryCacheTTL,
			Max:   cfg.QueryCacheMax,
			Obs:   cfg.Obs,
		})
		s.table.caches = append(s.table.caches, s.qc)
	}
	s.receiver.Registry.Observe(s.table)
	s.strategy = cfg.Strategy
	s.strategy.attach(s)
	if cfg.Obs != nil {
		cfg.Obs.RegisterCounter("giis_registrations_total", &s.Registrations)
		cfg.Obs.RegisterCounter("giis_searches_total", &s.Searches)
		cfg.Obs.RegisterCounter("giis_chained_ops_total", &s.ChainedOps)
		cfg.Obs.RegisterCounter("giis_pool_evictions_total", &s.PoolEvictions)
		cfg.Obs.RegisterCounter("giis_pool_closes_total", &s.PoolCloses)
		cfg.Obs.RegisterCounter("giis_hedge_fired_total", &s.HedgeFired)
		s.hChainChild = cfg.Obs.Histogram("giis_chain_child_ns")
		s.hFanout = cfg.Obs.Histogram("giis_chain_fanout_width")
		reg := s.receiver.Registry
		cfg.Obs.GaugeFunc("giis_registry_live", func() float64 { return float64(reg.Len()) })
		cfg.Obs.CounterFunc("giis_registry_expired_total", func() int64 {
			return int64(reg.ExpiredTotal())
		})
		// Per-child dependency gauges (one sample per live registration,
		// labelled by the child's service URL): up distinguishes confirmed
		// children (1) from recovered-but-unconfirmed ones (0); the age gauge
		// shows how long since each child last refreshed; recovered flags the
		// restart-restored set explicitly so a post-crash dashboard can watch
		// it drain as children reconfirm.
		childGauge := func(name string, value func(now time.Time, c *Child) float64) {
			cfg.Obs.LabeledGaugeFunc(name, "child", func() []obs.LabeledValue {
				now, children := s.clock.Now(), s.Children()
				out := make([]obs.LabeledValue, len(children))
				for i := range children {
					out[i] = obs.LabeledValue{Label: children[i].URL.String(), Value: value(now, &children[i])}
				}
				return out
			})
		}
		recovered := func(_ time.Time, c *Child) float64 {
			if c.Recovered {
				return 1
			}
			return 0
		}
		childGauge("giis_child_up", func(now time.Time, c *Child) float64 { return 1 - recovered(now, c) })
		childGauge("giis_child_last_refresh_age_seconds", func(now time.Time, c *Child) float64 {
			return now.Sub(c.LastRefresh).Seconds()
		})
		childGauge("giis_child_recovered", recovered)
		cfg.Obs.GaugeFunc("giis_pool_size", func() float64 {
			s.poolMu.Lock()
			n := len(s.pool)
			s.poolMu.Unlock()
			return float64(n)
		})
		// PR 4's per-client UnknownResponses counter, aggregated across the
		// whole pool (live connections plus everything already closed).
		cfg.Obs.CounterFunc("ldap_client_unknown_responses_total", func() int64 {
			s.poolMu.Lock()
			total := s.unknownClosed.Value()
			for _, pe := range s.pool {
				total += pe.c.UnknownResponses.Value()
			}
			s.poolMu.Unlock()
			return total
		})
	}
	return s
}

// Suffix returns the directory's namespace root.
func (s *Server) Suffix() ldap.DN { return s.cfg.Suffix }

// Name returns the directory's configured name.
func (s *Server) Name() string { return s.cfg.Name }

// Receiver exposes the GRRP ingest point for datagram transports:
// network.HandleDatagrams(node, giis.Receiver().HandleDatagram).
func (s *Server) Receiver() *grrp.Receiver { return s.receiver }

// Ingest validates and applies one GRRP message (any transport).
func (s *Server) Ingest(m *grrp.Message) bool {
	ok := s.receiver.Ingest(m)
	if ok {
		s.Registrations.Inc()
	}
	return ok
}

// IngestBatch validates and applies a batch of GRRP messages through one
// registry transaction (one lock pass, one child-table generation),
// returning the number accepted — the bulk loaders' and refresh-storm
// absorbers' path.
func (s *Server) IngestBatch(msgs []*grrp.Message) int {
	n := s.receiver.IngestBatch(msgs)
	s.Registrations.Add(int64(n))
	return n
}

// HandleDatagram ingests one datagram-carried GRRP payload; wire it into
// simnet.HandleDatagrams or a UDP read loop.
func (s *Server) HandleDatagram(_ string, payload []byte) {
	m, err := grrp.Unmarshal(payload)
	if err != nil {
		return
	}
	s.Ingest(m)
}

// Children returns the live child set, sorted by service URL, with every
// child's deadline and refresh time current. The slice is the caller's.
func (s *Server) Children() []Child {
	s.sweep()
	recs, _ := s.table.records()
	return children(recs)
}

// sweep lets the registry apply due expiries to the child table, so what
// is read from the table next lists nothing at or past its deadline.
func (s *Server) sweep() { s.receiver.Registry.Sweep() }

// poolEntry is one pooled child connection plus a reference count. A hop
// borrows one per op (borrow, or acquire, which dials on a miss) and returns
// it with release; evicting a broken entry only unlinks it — the connection
// closes when the last borrower releases it, never under another op.
type poolEntry struct {
	c       *ldap.Client
	key     string
	refs    int
	evicted bool
}

// QueryCache returns the query-result cache, or nil when disabled, for a
// caller that reads its counters; over GRIP they are cn=monitor entries.
func (s *Server) QueryCache() *qcache.Cache { return s.qc }

// Close releases pooled connections and the registry. Connections still
// borrowed by in-flight chains close on their final release.
func (s *Server) Close() {
	s.receiver.Close()
	s.poolMu.Lock()
	s.closed = true
	var idle []*ldap.Client
	for k, pe := range s.pool {
		pe.evicted = true
		if pe.refs == 0 {
			idle = append(idle, pe.c)
		}
		delete(s.pool, k)
	}
	s.poolMu.Unlock()
	for _, c := range idle {
		s.closePooled(c)
	}
}

// closePooled closes a pooled child connection, folding its unknown-response
// count into the pool-lifetime aggregate first.
func (s *Server) closePooled(c *ldap.Client) {
	s.unknownClosed.Add(c.UnknownResponses.Value())
	s.PoolCloses.Inc()
	c.Close()
}

// borrow takes a reference on the pooled connection under key, if the
// pool holds one; a closed directory lends none.
func (s *Server) borrow(key string) (*poolEntry, error) {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	pe := s.pool[key]
	if s.closed {
		return nil, fmt.Errorf("giis: directory closed")
	} else if pe != nil {
		pe.refs++
	}
	return pe, nil
}

// dial has a pool miss dialled off the search's goroutine — the hedge cuts a
// slow dial off like a slow reply — then sets h.pe and h.call.Err and
// resumes h, handing it to its search if it has its reply.
func (s *Server) dial(h *hop) {
	go func() {
		h.pe, h.call.Err = s.acquire(h.child().service(), h.child().URL)
		if h.ctx.advance(h) {
			h.ctx.done <- h
		}
	}()
}

// acquire borrows a pooled connection to a child, dialing url on demand.
// The pool is keyed by key, url's ServiceKey (a chained op passes its
// child's, rendered once). Every successful acquire must be paired with a
// release.
func (s *Server) acquire(key string, url ldap.URL) (*poolEntry, error) {
	if pe, err := s.borrow(key); pe != nil || err != nil {
		return pe, err
	}
	c, err := s.cfg.Dial(url)
	if err != nil {
		return nil, err
	}
	if s.cfg.AuthChildren && s.cfg.Keys != nil && s.cfg.Trust != nil {
		if _, err := grip.AuthenticateLDAP(c, s.cfg.Keys, s.cfg.Trust, s.clock.Now); err != nil {
			c.Close()
			return nil, fmt.Errorf("giis: authenticating to %s: %w", url, err)
		}
	}
	pe := &poolEntry{c: c, key: key, refs: 1}
	s.poolMu.Lock()
	if existing := s.pool[key]; existing != nil {
		// Another chain won the dial race; use its connection.
		existing.refs++
		s.poolMu.Unlock()
		c.Close()
		return existing, nil
	}
	if s.closed {
		s.poolMu.Unlock()
		c.Close()
		return nil, fmt.Errorf("giis: directory closed")
	}
	s.pool[key] = pe
	s.poolMu.Unlock()
	return pe, nil
}

// release returns a borrowed entry, closing the connection if it was
// evicted and this was the last borrower.
func (s *Server) release(pe *poolEntry) {
	s.poolMu.Lock()
	pe.refs--
	dead := pe.evicted && pe.refs == 0
	s.poolMu.Unlock()
	if dead {
		s.closePooled(pe.c)
	}
}

// evict removes a broken entry from the pool so no future chain borrows
// it. The caller still holds its reference; the connection closes once all
// current borrowers release.
func (s *Server) evict(pe *poolEntry) {
	s.poolMu.Lock()
	if !pe.evicted {
		pe.evicted = true
		s.PoolEvictions.Inc()
		if s.pool[pe.key] == pe {
			delete(s.pool, pe.key)
		}
	}
	s.poolMu.Unlock()
}

// hopTrace is the trace identity a search's hops carry, copied by value out
// of the client's Request when the search starts: a hop the hedge cut off
// still runs after the search returns, when the connection has handed the
// Request to its next operation. The zero value is untraced.
type hopTrace struct {
	span  *obs.Span // the search's server span; hops hang theirs off it
	id    string    // empty when the search is untraced
	depth int
}

// markHop records a hop a cache answered (a fetch has a real chain span):
// a zero-fan-out marker span shows where the cache cut the chain short.
func markHop(tr hopTrace, child *Child, how qcache.Outcome) {
	if tr.id == "" {
		return
	}
	sp := tr.span.Child("chain:" + child.URL.String())
	sp.SetNote("cache " + how.String())
	sp.End()
}

// hopRegion is what a hop's cached reply answers: the region in the child's
// namespace, owned by the child's service key, marked for a peer's
// shard-local probe (it and a full chain to the same peer are different
// questions and must not share results).
func hopRegion(child *Child, childBase ldap.DN, childScope ldap.Scope, filter *ldap.Filter, peer bool) qcache.Region {
	owner := child.service()
	if peer {
		owner += "|" + shard.OIDShardLocal
	}
	return qcache.Region{Owner: owner, Base: childBase, Scope: childScope, Filter: filter}
}

// grafted reports whether the child's namespace appears somewhere else in
// this directory's view, so its entries change name on the way through. A
// child already under the directory's suffix keeps its names as they are.
func (c Child) grafted() bool {
	return !slices.EqualFunc(c.Suffix, c.ViewSuffix, func(a, b ldap.RDN) bool { return slices.Equal(a, b) })
}

// partialPrefix opens the diagnostic message of a successful result that is
// known to be incomplete; it is how the flag travels up a hierarchy.
const partialPrefix = "partial results"

func partialResult(why string) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess, Message: partialPrefix + ": " + why}
}

func isPartial(r ldap.Result) bool { return strings.HasPrefix(r.Message, partialPrefix) }

// translateRegion maps a search region in the GIIS view into the child's
// namespace, returning ok=false when the region cannot contain the child's
// entries.
func translateRegion(base ldap.DN, scope ldap.Scope, child *Child) (ldap.DN, ldap.Scope, bool) {
	v := child.ViewSuffix
	// Region rooted at or below the child's view subtree: translate base.
	if base.Equal(v) {
		return child.Suffix, scope, true
	}
	if base.IsDescendantOf(v) {
		rel, _ := base.RelativeTo(v)
		return rel.Under(child.Suffix), scope, true
	}
	// Region above the child: the child's whole subtree may participate if
	// the scope reaches it.
	switch scope {
	case ldap.ScopeWholeSubtree:
		if v.IsDescendantOf(base) {
			return child.Suffix, ldap.ScopeWholeSubtree, true
		}
	case ldap.ScopeSingleLevel:
		if v.Depth() == base.Depth()+1 && v.IsDescendantOf(base) {
			return child.Suffix, ldap.ScopeBaseObject, true
		}
	}
	return nil, 0, false
}

// Bind accepts anonymous binds always (directories commonly run open for
// discovery, per §7's common-policy observation) and GSI SASL binds when
// the directory is configured with keys and a trust store.
func (s *Server) Bind(req *ldap.Request, op *ldap.BindRequest) *ldap.BindResponse {
	switch {
	case op.SASLMech == "":
		return &ldap.BindResponse{Result: ldap.Result{Code: ldap.ResultSuccess}}
	case op.SASLMech == gsi.SASLMechanism && s.sasl != nil:
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
	default:
		return &ldap.BindResponse{Result: ldap.Result{Code: ldap.ResultAuthMethodNotSupported,
			Message: "GIIS accepts anonymous or SASL/GSI binds"}}
	}
}

// Add implements the MDS-2.1 GRRP transport: registrations arrive as LDAP
// add operations (§10.1) and are decoded into GRRP messages.
func (s *Server) Add(_ *ldap.Request, op *ldap.AddRequest) ldap.Result {
	m, err := grrp.FromEntry(op.Entry)
	if err != nil {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform,
			Message: "GIIS accepts only GRRP registration entries: " + err.Error()}
	}
	if !s.Ingest(m) {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: "registration refused"}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// rootDSE advertises the directory's namespace, monitor, strategy, and
// supported extensions (the §6 service-publication mechanism).
func (s *Server) rootDSE() *ldap.Entry {
	e := ldap.NewEntry(ldap.DN{}).
		Add("objectclass", "top").
		Add("vendorname", "mds2").
		Add("mdstype", "giis").
		Add("namingcontexts", s.cfg.Suffix.String()).
		Add("monitorcontext", s.monitor.String()).
		Add("searchstrategy", s.strategy.Name()).
		Add("supportedsaslmechanisms", gsi.SASLMechanism)
	for oid := range s.cfg.Extensions {
		e.Add("supportedextension", oid)
	}
	return e
}

// Search answers GRIP queries: service metadata, the monitor and the name
// index are served locally; data queries go through the configured
// strategy.
func (s *Server) Search(req *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	s.Searches.Inc()
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
	s.sweep()
	if base.WithinScope(s.monitor, ldap.ScopeWholeSubtree) {
		return s.searchMonitor(base, op, w)
	}

	// Serve the local entries (self + name index) that fall in the region:
	// one indexed lookup, and the stored entries go out as they are — the
	// writer encodes an entry before SendEntry returns.
	sent := int64(0)
	if mayContainLocal(s.cfg.Suffix, base, op.Scope) {
		var found [8]*ldap.Entry
		local, more := s.table.nameIndex().AppendCompiled(found[:0], base, op.Scope, op.Plan(), op.SizeLimit)
		for _, e := range local {
			if err := ldap.SendProjected(w, e, op.Attributes); err != nil {
				return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
			}
		}
		if more {
			return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
		}
		sent = int64(len(local))
	}

	// Hand data queries to the strategy.
	return s.strategy.search(&searchContext{
		Server: s, Op: op, W: w, Base: base, sent: &sent,
		controls: req.Controls, trace: hopTrace{span: req.Span, id: req.TraceID, depth: req.TraceDepth},
		chainAttrs: qcache.NormalizeAttrs(op.Attributes),
	})
}

// mayContainLocal reports whether a search region could include the
// directory's own service entry or any child index entry. All local entries
// live at exactly suffix.Depth()+1, directly under the suffix, so most data
// regions rule them out here — and a directory that is only ever asked such
// questions never builds its name index at all.
func mayContainLocal(suffix, base ldap.DN, scope ldap.Scope) bool {
	level := suffix.Depth() + 1
	switch {
	case base.Depth() > level:
		// Local entries are shallower than the base; no scope reaches up.
		return false
	case base.Depth() == level:
		// Only the entry equal to base itself can match, and only for
		// scopes that include the base object.
		if scope == ldap.ScopeSingleLevel {
			return false
		}
		if !base.IsDescendantOf(suffix) {
			return false
		}
		leaf := base.Leaf()
		if len(leaf) != 1 {
			return false
		}
		switch strings.ToLower(leaf[0].Attr) {
		case "mds-service", "mds-child":
			return true
		}
		return false
	default:
		// Base is above the local level; the scope must reach down to it.
		switch scope {
		case ldap.ScopeBaseObject:
			return false
		case ldap.ScopeSingleLevel:
			return base.Equal(suffix)
		default:
			return base.Equal(suffix) || suffix.IsDescendantOf(base)
		}
	}
}

var errSizeLimit = fmt.Errorf("size limit")

func sizeOrUnavailable(err error) ldap.Result {
	if err == errSizeLimit {
		return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
	}
	return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
}

// Extended dispatches GRIP extension operations registered in the
// configuration.
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

// SelfRegistration builds the GRRP registration this GIIS sustains toward a
// parent directory, forming the Figure 5 hierarchy.
func (s *Server) SelfRegistration(parentTarget string, vo string, interval, ttl time.Duration) grrp.Registration {
	return grrp.Registration{
		Target: parentTarget,
		Message: grrp.Message{
			Type:       grrp.TypeRegister,
			ServiceURL: s.cfg.SelfURL.String(),
			MDSType:    "giis",
			VO:         vo,
			SuffixDN:   s.cfg.Suffix.String(),
		},
		Interval: interval,
		TTL:      ttl,
	}
}

// Invite sends a GRRP invitation asking the service at targetAddr to join
// this directory (§10.4 invitation support). transport carries the
// datagram; the invited service registers back over its own stream. When
// the directory has keys, the invitation is signed so providers can apply
// the §7 registration-security checks to invitations too.
func (s *Server) Invite(transport grrp.Transport, targetAddr, vo string, ttl time.Duration) error {
	now := s.clock.Now()
	m := grrp.Message{
		Type:       grrp.TypeInvite,
		ServiceURL: s.cfg.SelfURL.String(),
		MDSType:    "giis",
		VO:         vo,
		SuffixDN:   s.cfg.Suffix.String(),
		IssuedAt:   now,
		ValidUntil: now.Add(ttl),
	}
	if s.cfg.Keys != nil {
		m.Sign(s.cfg.Keys)
	}
	return transport.Send(targetAddr, m.Marshal())
}
