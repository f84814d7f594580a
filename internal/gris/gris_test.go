package gris

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/softstate"
)

// fakeBackend is a scriptable backend for unit tests.
type fakeBackend struct {
	name    string
	suffix  ldap.DN
	attrs   []string
	ttl     time.Duration
	entries []*ldap.Entry
	err     error
	calls   int
}

func (b *fakeBackend) Name() string            { return b.name }
func (b *fakeBackend) Suffix() ldap.DN         { return b.suffix }
func (b *fakeBackend) Attributes() []string    { return b.attrs }
func (b *fakeBackend) CacheTTL() time.Duration { return b.ttl }
func (b *fakeBackend) Entries(*Query) ([]*ldap.Entry, error) {
	b.calls++
	if b.err != nil {
		return nil, b.err
	}
	return b.entries, nil
}

type sink struct {
	entries []*ldap.Entry
	ctls    [][]ldap.Control
}

func (s *sink) SendEntry(e *ldap.Entry, cs ...ldap.Control) error {
	s.entries = append(s.entries, e)
	s.ctls = append(s.ctls, cs)
	return nil
}
func (s *sink) SendReferral(...string) error { return nil }

func hostDN() ldap.DN { return ldap.MustParseDN("hn=hostX, o=center1") }

func anonReq() *ldap.Request {
	return &ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}
}

func newTestGRIS(clock softstate.Clock) (*Server, *fakeBackend, *fakeBackend) {
	s := New(Config{Suffix: hostDN(), Clock: clock})
	static := &fakeBackend{
		name: "static", suffix: hostDN(),
		attrs: []string{"hn", "system", "cpucount"},
		ttl:   time.Hour,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN()).
			Add("objectclass", "computer").
			Add("hn", "hostX").
			Add("system", "linux").
			Add("cpucount", "8")},
	}
	dynamic := &fakeBackend{
		name: "dynamic", suffix: hostDN(),
		attrs: []string{"perf", "load5"},
		ttl:   10 * time.Second,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN().ChildAVA("perf", "load")).
			Add("objectclass", "perf", "loadaverage").
			Add("perf", "load").
			Add("load5", "1.5")},
	}
	s.Register(static)
	s.Register(dynamic)
	return s, static, dynamic
}

func TestSearchMergesBackends(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	w := &sink{}
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}, w)
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("result %+v", res)
	}
	if len(w.entries) != 2 {
		t.Fatalf("entries = %d", len(w.entries))
	}
	// Deterministic order: parent before child.
	if !w.entries[0].DN.Equal(hostDN()) {
		t.Errorf("order: first = %q", w.entries[0].DN)
	}
}

func TestSearchFiltersServerSide(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	w := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=loadaverage)")}, w)
	if len(w.entries) != 1 || w.entries[0].First("load5") != "1.5" {
		t.Fatalf("entries = %v", w.entries)
	}
}

func TestSearchScopePruning(t *testing.T) {
	s, static, dynamic := newTestGRIS(softstate.NewFakeClock())
	w := &sink{}
	// Base search on the host entry itself must not consult the dynamic
	// backend's child entries... both backends share the suffix, so both
	// are consulted, but only the host entry is returned.
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeBaseObject}, w)
	if res.Code != ldap.ResultSuccess || len(w.entries) != 1 {
		t.Fatalf("base search: %+v, %d entries", res, len(w.entries))
	}
	_ = static
	_ = dynamic
	// A search rooted elsewhere entirely is noSuchObject.
	res = s.Search(anonReq(), &ldap.SearchRequest{BaseDN: "o=elsewhere", Scope: ldap.ScopeWholeSubtree}, &sink{})
	if res.Code != ldap.ResultNoSuchObject {
		t.Fatalf("foreign base: %+v", res)
	}
	// A subtree search above the suffix reaches us.
	w2 := &sink{}
	res = s.Search(anonReq(), &ldap.SearchRequest{BaseDN: "o=center1", Scope: ldap.ScopeWholeSubtree}, w2)
	if res.Code != ldap.ResultSuccess || len(w2.entries) != 2 {
		t.Fatalf("parent subtree: %+v, %d", res, len(w2.entries))
	}
}

func TestAttributePruningSkipsBackend(t *testing.T) {
	s, static, dynamic := newTestGRIS(softstate.NewFakeClock())
	// Uncached path so calls are observable.
	static.ttl = 0
	dynamic.ttl = 0
	w := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(&(objectclass=computer)(cpucount>=4))")}, w)
	if static.calls != 1 {
		t.Errorf("static calls = %d", static.calls)
	}
	if dynamic.calls != 0 {
		t.Errorf("dynamic should be pruned (cpucount not in its attrs), calls = %d", dynamic.calls)
	}
	// Disjunctive filters cannot prune unless all branches are foreign.
	w2 := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(|(cpucount>=4)(load5<=9))")}, w2)
	if dynamic.calls != 1 {
		t.Errorf("dynamic should run for disjunction, calls = %d", dynamic.calls)
	}
}

func TestCacheServesRepeatQueries(t *testing.T) {
	clock := softstate.NewFakeClock()
	s, static, _ := newTestGRIS(clock)
	req := &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	for i := 0; i < 5; i++ {
		s.Search(anonReq(), req, &sink{})
	}
	if static.calls != 1 {
		t.Fatalf("static invoked %d times, want 1 (cached)", static.calls)
	}
	if s.CacheHits.Value() == 0 {
		t.Error("cache hits not counted")
	}
	// TTL expiry triggers re-invocation.
	clock.Advance(2 * time.Hour)
	s.Search(anonReq(), req, &sink{})
	if static.calls != 2 {
		t.Fatalf("static invoked %d times after TTL, want 2", static.calls)
	}
	// FlushCache forces invocation.
	s.FlushCache()
	s.Search(anonReq(), req, &sink{})
	if static.calls != 3 {
		t.Fatalf("static invoked %d times after flush, want 3", static.calls)
	}
}

// stampBackend answers one entry stamped with the time it was produced, so
// a reader can tell how old the data it was served is.
type stampBackend struct{ fakeBackend }

func (b *stampBackend) Entries(q *Query) ([]*ldap.Entry, error) {
	b.calls++
	return []*ldap.Entry{ldap.NewEntry(hostDN().ChildAVA("perf", "load")).
		Add("objectclass", "perf", "loadaverage").
		Add("perf", "load").
		Add("fetched", strconv.FormatInt(q.Now.Unix(), 10))}, nil
}

// TestCacheTTLBoundsIntrusivenessAndStaleness checks E2 (§10.3): a
// provider's cache TTL trades invocations for data age. Of 2,000 queries at
// one per second, every one invokes the provider with caching off; with it
// on, ⌈2000 / TTL⌉ ± 1 do, and the mean age of what the queries are served
// is within 15 % of TTL/2 — (TTL − 1 s)/2 less the last partial window, as
// ages are whole query gaps.
func TestCacheTTLBoundsIntrusivenessAndStaleness(t *testing.T) {
	const queries, gap = 2000, time.Second
	for _, ttl := range []time.Duration{0, 10 * time.Second, time.Minute, 5 * time.Minute} {
		name := ttl.String()
		if ttl == 0 {
			name = "off"
		}
		t.Run(name, func(t *testing.T) {
			clock := softstate.NewFakeClock()
			s := New(Config{Suffix: hostDN(), Clock: clock})
			b := &stampBackend{fakeBackend{name: "load", suffix: hostDN(),
				attrs: []string{"perf", "fetched"}, ttl: ttl}}
			s.Register(b)
			req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter("(objectclass=loadaverage)")}
			var age time.Duration
			for i := 0; i < queries; i++ {
				clock.Advance(gap)
				w := &sink{}
				s.Search(anonReq(), req, w)
				if len(w.entries) != 1 {
					t.Fatalf("query %d: %d entries", i, len(w.entries))
				}
				fetched, err := strconv.ParseInt(w.entries[0].First("fetched"), 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				age += clock.Now().Sub(time.Unix(fetched, 0))
			}
			mean := age / queries
			if ttl == 0 {
				if b.calls != queries || mean != 0 {
					t.Fatalf("caching off: %d invocations, mean age %v; want %d, 0s", b.calls, mean, queries)
				}
				return
			}
			want := int((queries*gap + ttl - 1) / ttl)
			if b.calls < want-1 || b.calls > want+1 {
				t.Errorf("%d invocations, want %d ± 1", b.calls, want)
			}
			if d := mean - ttl/2; d.Abs() > ttl/2*15/100 {
				t.Errorf("mean data age %v, want within 15%% of %v", mean, ttl/2)
			}
		})
	}
}

func TestCachedSupersetServesNarrowQueries(t *testing.T) {
	clock := softstate.NewFakeClock()
	s, _, dynamic := newTestGRIS(clock)
	// Wide query populates the cache.
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}, &sink{})
	// Narrow query with a filter is served from the cached superset.
	w := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "perf=load, hn=hostX, o=center1", Scope: ldap.ScopeBaseObject,
		Filter: ldap.MustParseFilter("(load5>=1.0)")}, w)
	if len(w.entries) != 1 {
		t.Fatalf("narrow query entries = %d", len(w.entries))
	}
	if dynamic.calls != 1 {
		t.Fatalf("dynamic invoked %d times, want 1", dynamic.calls)
	}
}

func TestFailedBackendDoesNotPreventOthers(t *testing.T) {
	s, static, _ := newTestGRIS(softstate.NewFakeClock())
	static.err = errors.New("provider crashed")
	static.ttl = 0
	w := &sink{}
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}, w)
	if res.Code != ldap.ResultSuccess {
		t.Fatalf("result %+v", res)
	}
	if len(w.entries) != 1 || w.entries[0].First("load5") != "1.5" {
		t.Fatalf("surviving backend results = %v", w.entries)
	}
	if res.Message == "" {
		t.Error("partial results should be flagged")
	}
}

func TestScopeTooWideYieldsPartial(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	parametric := &fakeBackend{name: "param", suffix: hostDN().ChildAVA("net", "links"),
		ttl: 0, err: ErrScopeTooWide}
	s.Register(parametric)
	w := &sink{}
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}, w)
	if res.Code != ldap.ResultSuccess || res.Message == "" {
		t.Fatalf("res = %+v", res)
	}
	if len(w.entries) != 2 {
		t.Fatalf("other backends still answer: %d", len(w.entries))
	}
}

func TestAttributeSelectionAndTypesOnly(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	w := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeBaseObject,
		Attributes: []string{"system"}}, w)
	if len(w.entries) != 1 || len(w.entries[0].Attrs) != 1 || !w.entries[0].Has("system") {
		t.Fatalf("selection: %v", w.entries[0])
	}
	w2 := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeBaseObject,
		TypesOnly: true}, w2)
	for _, a := range w2.entries[0].Attrs {
		if len(a.Values) != 0 {
			t.Fatalf("typesOnly leaked values: %+v", a)
		}
	}
}

func TestSizeLimit(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	w := &sink{}
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree, SizeLimit: 1}, w)
	if res.Code != ldap.ResultSizeLimitExceeded || len(w.entries) != 1 {
		t.Fatalf("res=%+v n=%d", res, len(w.entries))
	}
}

func TestPolicyEnforcement(t *testing.T) {
	clock := softstate.NewFakeClock()
	policy := gsi.NewPolicy(gsi.PostureRestricted).
		Grant("anonymous", "objectclass", "hn", "system").
		Grant("cn=broker", "*")
	s := New(Config{Suffix: hostDN(), Clock: clock, Policy: policy})
	s.Register(&fakeBackend{
		name: "b", suffix: hostDN(), ttl: time.Hour,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN()).
			Add("objectclass", "computer").
			Add("hn", "hostX").
			Add("system", "linux").
			Add("load5", "0.2")},
	})
	// Anonymous sees redacted view.
	w := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeBaseObject}, w)
	if len(w.entries) != 1 || w.entries[0].Has("load5") {
		t.Fatalf("anonymous view: %v", w.entries)
	}
	// Anonymous may not filter on restricted attributes.
	res := s.Search(anonReq(), &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(load5<=1.0)")}, &sink{})
	if res.Code != ldap.ResultInsufficientAccessRights {
		t.Fatalf("restricted filter: %+v", res)
	}
	// The broker principal sees everything.
	req := anonReq()
	req.State.SetIdentity("cn=broker", &gsi.Principal{Subject: "cn=broker"})
	w2 := &sink{}
	res = s.Search(req, &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(load5<=1.0)")}, w2)
	if res.Code != ldap.ResultSuccess || len(w2.entries) != 1 || !w2.entries[0].Has("load5") {
		t.Fatalf("broker view: %+v %v", res, w2.entries)
	}
}

func TestBindPolicies(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	if r := s.Bind(anonReq(), &ldap.BindRequest{Version: 3}); r.Code != ldap.ResultSuccess {
		t.Errorf("anonymous: %+v", r)
	}
	if r := s.Bind(anonReq(), &ldap.BindRequest{Version: 3, Name: "x", Password: "y"}); r.Code != ldap.ResultAuthMethodNotSupported {
		t.Errorf("simple w/ password: %+v", r)
	}
	if r := s.Bind(anonReq(), &ldap.BindRequest{Version: 3, SASLMech: "GSI"}); r.Code != ldap.ResultAuthMethodNotSupported {
		t.Errorf("GSI unconfigured: %+v", r)
	}
}

func TestGSIBindHandshake(t *testing.T) {
	clock := softstate.NewFakeClock()
	ca, _ := gsi.NewAuthority("o=ca")
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	serverKeys, _ := ca.Issue("cn=gris.hostX", time.Hour, clock.Now())
	clientKeys, _ := ca.Issue("cn=alice", time.Hour, clock.Now())

	s := New(Config{Suffix: hostDN(), Clock: clock, Keys: serverKeys, Trust: trust,
		TrustedDirectories: []string{"cn=alice"}})

	state := &ldap.ConnState{}
	req := &ldap.Request{Ctx: context.Background(), State: state}
	hs := gsi.NewClientHandshake(clientKeys, trust, clock.Now)
	hello, err := hs.Hello()
	if err != nil {
		t.Fatal(err)
	}
	resp := s.Bind(req, &ldap.BindRequest{Version: 3, SASLMech: gsi.SASLMechanism, SASLCreds: hello})
	if resp.Code != ldap.ResultSaslBindInProgress {
		t.Fatalf("first bind: %+v", resp)
	}
	proof, err := hs.Respond(resp.ServerCreds)
	if err != nil {
		t.Fatal(err)
	}
	resp = s.Bind(req, &ldap.BindRequest{Version: 3, SASLMech: gsi.SASLMechanism, SASLCreds: proof})
	if resp.Code != ldap.ResultSuccess {
		t.Fatalf("second bind: %+v", resp)
	}
	p, _ := state.Identity().(*gsi.Principal)
	if p == nil || p.Subject != "cn=alice" || !p.TrustedDirectory {
		t.Fatalf("principal = %+v", p)
	}
}

func TestGSIBindRejectsBadProof(t *testing.T) {
	clock := softstate.NewFakeClock()
	ca, _ := gsi.NewAuthority("o=ca")
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	serverKeys, _ := ca.Issue("cn=gris", time.Hour, clock.Now())
	clientKeys, _ := ca.Issue("cn=alice", time.Hour, clock.Now())
	s := New(Config{Suffix: hostDN(), Clock: clock, Keys: serverKeys, Trust: trust})

	state := &ldap.ConnState{}
	req := &ldap.Request{Ctx: context.Background(), State: state}
	hs := gsi.NewClientHandshake(clientKeys, trust, clock.Now)
	hello, _ := hs.Hello()
	resp := s.Bind(req, &ldap.BindRequest{SASLMech: gsi.SASLMechanism, SASLCreds: hello})
	if resp.Code != ldap.ResultSaslBindInProgress {
		t.Fatal(resp)
	}
	resp = s.Bind(req, &ldap.BindRequest{SASLMech: gsi.SASLMechanism, SASLCreds: []byte("{}")})
	if resp.Code != ldap.ResultInvalidCredentials {
		t.Fatalf("bad proof: %+v", resp)
	}
	if state.Identity() != nil {
		t.Error("identity must not be set after failed handshake")
	}
}

func TestPersistentSearchPushesChanges(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{Suffix: hostDN(), Clock: clock, PollInterval: time.Second})
	value := "1.0"
	s.Register(&fakeBackend{name: "dyn", suffix: hostDN(), ttl: 0})
	dyn := &fakeBackend{name: "dyn2", suffix: hostDN(), ttl: 0}
	s.Register(dyn)
	makeEntry := func(v string) []*ldap.Entry {
		return []*ldap.Entry{ldap.NewEntry(hostDN().ChildAVA("perf", "load")).
			Add("objectclass", "loadaverage").Add("perf", "load").Add("load5", v)}
	}
	dyn.entries = makeEntry(value)

	ctx, cancel := context.WithCancel(context.Background())
	req := &ldap.Request{Ctx: ctx, State: &ldap.ConnState{},
		Controls: []ldap.Control{ldap.NewPersistentSearchControl(ldap.PersistentSearch{
			ChangeTypes: ldap.ChangeAll, ChangesOnly: false, ReturnECs: true})}}
	got := make(chan *ldap.Entry, 16)
	w := pushSink{got: got}
	done := make(chan ldap.Result, 1)
	go func() {
		done <- s.Search(req, &ldap.SearchRequest{
			BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}, w)
	}()
	// armed waits until the poll loop waits on its timer: advancing the
	// clock before that would move time under a loop that has not looked.
	armed := func() {
		t.Helper()
		for start := time.Now(); clock.Pending() == 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatal("the poll loop never armed its timer")
			}
		}
	}
	// Baseline entry arrives.
	e := <-got
	if e.First("load5") != "1.0" {
		t.Fatalf("baseline = %v", e)
	}
	// Change the value; next poll pushes an update.
	armed()
	dyn.entries = makeEntry("2.0")
	clock.Advance(time.Second)
	select {
	case e := <-got:
		if e.First("load5") != "2.0" {
			t.Fatalf("update = %v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push on change")
	}
	// Unchanged value: the next poll runs — the loop has armed its timer
	// again once it is through — and pushes nothing.
	armed()
	clock.Advance(time.Second)
	armed()
	select {
	case e := <-got:
		t.Fatalf("unexpected push %v", e)
	default:
	}
	cancel()
	select {
	case res := <-done:
		if res.Code != ldap.ResultSuccess {
			t.Fatalf("final = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("persistent search did not exit")
	}
}

// TestPersistentSearchPushesDeletes: an entry that leaves a subscriber's
// result is pushed once more, as it was last sent and projected like any
// other push, with a ChangeDelete entry-change control. A subscription
// whose change types leave out deletes is sent nothing, and a round a
// provider failed deletes nothing.
func TestPersistentSearchPushesDeletes(t *testing.T) {
	for _, types := range []int64{ldap.ChangeAll, ldap.ChangeAdd | ldap.ChangeModify} {
		clock := softstate.NewFakeClock()
		s := New(Config{Suffix: hostDN(), Clock: clock, PollInterval: time.Second})
		dyn := &fakeBackend{name: "dyn", suffix: hostDN(), ttl: 0, entries: []*ldap.Entry{
			ldap.NewEntry(hostDN().ChildAVA("perf", "load")).
				Add("objectclass", "loadaverage").Add("perf", "load").Add("load5", "1.0")}}
		s.Register(dyn)

		ctx, cancel := context.WithCancel(context.Background())
		req := &ldap.Request{Ctx: ctx, State: &ldap.ConnState{},
			Controls: []ldap.Control{ldap.NewPersistentSearchControl(ldap.PersistentSearch{
				ChangeTypes: types, ReturnECs: true})}}
		got := make(changeSink, 16)
		done := make(chan ldap.Result, 1)
		go func() {
			done <- s.Search(req, &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1",
				Scope: ldap.ScopeWholeSubtree, Attributes: []string{"load5"}}, got)
		}()
		armed := func() {
			t.Helper()
			for start := time.Now(); clock.Pending() == 0; time.Sleep(time.Millisecond) {
				if time.Since(start) > 5*time.Second {
					t.Fatal("the poll loop never armed its timer")
				}
			}
		}
		if c := <-got; c.typ != ldap.ChangeAdd {
			t.Fatalf("types %d: baseline pushed as change %d", types, c.typ)
		}
		// A round the backend fails is partial: its entry did not leave.
		armed()
		dyn.err = errors.New("provider down")
		clock.Advance(time.Second)
		armed()
		select {
		case c := <-got:
			t.Fatalf("types %d: a failed round pushed change %d of %s", types, c.typ, c.e.DN)
		default:
		}
		// The backend drops its entry; the next poll reports the removal.
		dyn.err, dyn.entries = nil, nil
		clock.Advance(time.Second)
		if types&ldap.ChangeDelete != 0 {
			select {
			case c := <-got:
				if c.typ != ldap.ChangeDelete || !c.e.DN.Equal(hostDN().ChildAVA("perf", "load")) {
					t.Fatalf("removal pushed as change %d of %s", c.typ, c.e.DN)
				}
				if attrs := c.e.Attributes(); len(attrs) != 1 || c.e.First("load5") != "1.0" {
					t.Fatalf("removal pushed as %v, want the last load5 only", c.e)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("no push on removal")
			}
			armed()
			clock.Advance(time.Second)
		}
		// The removal goes out once, and not at all unless asked for.
		armed()
		select {
		case c := <-got:
			t.Fatalf("types %d: unexpected push of change %d of %s", types, c.typ, c.e.DN)
		default:
		}
		cancel()
		if res := <-done; res.Code != ldap.ResultSuccess {
			t.Fatalf("final = %+v", res)
		}
	}
}

// changeSink passes each pushed entry on with the change type its
// entry-change control names (-1 without one).
type changeSink chan pushedChange

type pushedChange struct {
	e   *ldap.Entry
	typ int64
}

func (c changeSink) SendEntry(e *ldap.Entry, cs ...ldap.Control) error {
	typ := int64(-1)
	if len(cs) == 1 {
		typ, _ = ldap.ParseEntryChange(cs[0])
	}
	c <- pushedChange{e, typ}
	return nil
}
func (changeSink) SendReferral(...string) error { return nil }

type pushSink struct{ got chan *ldap.Entry }

func (p pushSink) SendEntry(e *ldap.Entry, _ ...ldap.Control) error {
	p.got <- e
	return nil
}
func (p pushSink) SendReferral(...string) error { return nil }

func TestRegionsIntersect(t *testing.T) {
	suffix := ldap.MustParseDN("hn=h, o=c")
	cases := []struct {
		base  string
		scope ldap.Scope
		want  bool
	}{
		{"hn=h, o=c", ldap.ScopeBaseObject, true},
		{"perf=l, hn=h, o=c", ldap.ScopeBaseObject, true},
		{"o=c", ldap.ScopeBaseObject, false},
		{"o=c", ldap.ScopeSingleLevel, true},
		{"", ldap.ScopeSingleLevel, false},
		{"o=c", ldap.ScopeWholeSubtree, true},
		{"", ldap.ScopeWholeSubtree, true},
		{"o=other", ldap.ScopeWholeSubtree, false},
	}
	for _, tc := range cases {
		if got := regionsIntersect(ldap.MustParseDN(tc.base), tc.scope, suffix); got != tc.want {
			t.Errorf("regionsIntersect(%q, %v) = %v, want %v", tc.base, tc.scope, got, tc.want)
		}
	}
}

func TestBackendsListing(t *testing.T) {
	s, _, _ := newTestGRIS(softstate.NewFakeClock())
	names := s.Backends()
	if len(names) != 2 || names[0] != "static" {
		t.Errorf("backends = %v", names)
	}
	if !s.Suffix().Equal(hostDN()) {
		t.Error("suffix accessor")
	}
}

func BenchmarkSearchCached(b *testing.B) {
	s, _, _ := newTestGRIS(softstate.RealClock{})
	req := &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	r := anonReq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Search(r, req, &sink{})
	}
}

func BenchmarkSearchUncached(b *testing.B) {
	s := New(Config{Suffix: hostDN(), Clock: softstate.RealClock{}})
	s.Register(&fakeBackend{name: "b", suffix: hostDN(), ttl: 0,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN()).Add("objectclass", "computer").Add("hn", "x")}})
	req := &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}
	r := anonReq()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Search(r, req, &sink{})
	}
}

// enquiryRig is the bench/ enquiry-point workload in process: a GRIS
// over one cacheable backend of hosts entries, its round already cached,
// and one equality enquiry per host.
func enquiryRig(hosts int) (*Server, []*ldap.SearchRequest) {
	suffix := ldap.MustParseDN("ou=s0, o=grid")
	entries := make([]*ldap.Entry, hosts)
	reqs := make([]*ldap.SearchRequest, hosts)
	for k := range entries {
		name := fmt.Sprintf("h%d", k)
		entries[k] = ldap.NewEntry(suffix.ChildAVA("hn", name)).
			Add("objectclass", "computer").Add("hn", name).Add("system", "linux redhat").
			Add("cpucount", "4").Add("load5", fmt.Sprintf("%d.%d", k%4, k%10))
		reqs[k] = &ldap.SearchRequest{BaseDN: suffix.String(), Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.MustParseFilter("(hn=" + name + ")")}
	}
	s := New(Config{Suffix: suffix, Clock: softstate.RealClock{}})
	s.Register(&fakeBackend{name: "corpus", suffix: suffix, ttl: time.Hour, entries: entries})
	s.Search(anonReq(), reqs[0], &sink{}) // fill the cache
	return s, reqs
}

// BenchmarkGRISEnquiry: one host out of 2,000 cached entries by an equality
// filter. The answer comes from the snapshot's index, so ns/op and allocs/op
// must not scale with the cache size.
func BenchmarkGRISEnquiry(b *testing.B) {
	const hosts = 2000
	s, reqs := enquiryRig(hosts)
	r := anonReq()
	w := &sink{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.entries, w.ctls = w.entries[:0], w.ctls[:0]
		s.Search(r, reqs[i%hosts], w)
		if len(w.entries) != 1 {
			b.Fatalf("enquiry %d answered with %d entries", i, len(w.entries))
		}
	}
}

// TestGRISCacheHitAllocationBudget: an enquiry answered from a cached
// provider round allocates nothing for the round table — a fresh round is
// found by its backend's name without one — nor for its query or its
// result. Built in process, a request is parsed and compiled by its
// handler: at most 3 allocations, 3 measured (6 while the handler made its
// Query escape and the store made two slices of each result). Received over
// the wire, it was parsed and compiled by the scan, and serving it makes at
// most 0, 0 measured.
func TestGRISCacheHitAllocationBudget(t *testing.T) {
	if !allocsExact {
		t.Skip("allocation counts are not the program's under -race or mdsdebug")
	}
	const hosts = 2000
	s, reqs := enquiryRig(hosts)
	scanned := make([]*ldap.SearchRequest, hosts)
	for k, req := range reqs {
		m, err := ldap.ScanMessage((&ldap.Message{ID: 1, Op: req}).Encode())
		if err != nil {
			t.Fatal(err)
		}
		scanned[k] = m.Op.(*ldap.SearchRequest)
	}
	for _, c := range []struct {
		name   string
		reqs   []*ldap.SearchRequest
		budget float64
	}{
		{"built in process", reqs, 3},
		{"scanned", scanned, 0},
	} {
		r := anonReq()
		w := &sink{}
		i := 0
		n := testing.AllocsPerRun(2000, func() {
			w.entries, w.ctls = w.entries[:0], w.ctls[:0]
			s.Search(r, c.reqs[i%hosts], w)
			if len(w.entries) != 1 {
				t.Fatalf("%s: enquiry %d answered with %d entries", c.name, i, len(w.entries))
			}
			i++
		})
		t.Logf("allocations per cached enquiry, %s: %.1f", c.name, n)
		if n > c.budget {
			t.Errorf("a cached enquiry, %s, makes %.1f allocations, budget %.0f", c.name, n, c.budget)
		}
	}
	if inv := s.Invocations.Value(); inv != 1 {
		t.Errorf("%d provider invocations, want 1: the enquiries were not cache hits", inv)
	}
}

func TestManyBackendsScale(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{Suffix: ldap.MustParseDN("o=center"), Clock: clock})
	for i := 0; i < 100; i++ {
		dn := ldap.MustParseDN(fmt.Sprintf("hn=h%d, o=center", i))
		s.Register(&fakeBackend{
			name: fmt.Sprintf("b%d", i), suffix: dn, ttl: time.Hour,
			entries: []*ldap.Entry{ldap.NewEntry(dn).Add("objectclass", "computer").Add("hn", fmt.Sprintf("h%d", i))},
		})
	}
	w := &sink{}
	res := s.Search(anonReq(), &ldap.SearchRequest{BaseDN: "o=center", Scope: ldap.ScopeWholeSubtree}, w)
	if res.Code != ldap.ResultSuccess || len(w.entries) != 100 {
		t.Fatalf("res=%+v n=%d", res, len(w.entries))
	}
	// A scoped query touches only one backend's subtree.
	w2 := &sink{}
	s.Search(anonReq(), &ldap.SearchRequest{BaseDN: "hn=h42, o=center", Scope: ldap.ScopeWholeSubtree}, w2)
	if len(w2.entries) != 1 {
		t.Fatalf("scoped = %d", len(w2.entries))
	}
}

// bootPersisted wires s to a data directory the way core.AddHost does —
// after New and Register, before serving: the rounds the directory holds
// are restored into s, and every later round is journaled. It returns the
// manager, the entries restored, and this boot's persist_wal_records_total.
func bootPersisted(t *testing.T, s *Server, dir string, clock softstate.Clock) (*persist.Manager, int, *obs.Counter) {
	t.Helper()
	o := obs.NewRegistry()
	pm, err := persist.Open(persist.Options{Dir: dir, Clock: clock, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	if pm.HasState() {
		stats, err := pm.Recover(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		restored = stats.Entries
	}
	if err := pm.Attach(s, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pm.Close() })
	return pm, restored, o.Counter("persist_wal_records_total")
}

// TestWarmRestoreRoundTrip: a query on one server journals the provider
// round; a second server recovering the same data directory after a crash
// answers from the restored round without invoking any backend, and rolls
// over to a live invocation once the warm grace expires.
func TestWarmRestoreRoundTrip(t *testing.T) {
	clock := softstate.NewFakeClock()
	dir := t.TempDir()
	static := &fakeBackend{
		name: "static", suffix: hostDN(),
		attrs: []string{"hn", "system"},
		ttl:   time.Hour,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN()).
			Add("objectclass", "computer").
			Add("hn", "hostX").
			Add("system", "linux")},
	}
	s1 := New(Config{Suffix: hostDN(), Clock: clock, WarmGrace: 30 * time.Minute})
	s1.Register(static)
	pm, _, records := bootPersisted(t, s1, dir, clock)
	req := &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1",
		Scope: ldap.ScopeWholeSubtree, Filter: ldap.MustParseFilter("(objectclass=computer)")}
	s1.Search(anonReq(), req, &sink{})
	if static.calls != 1 {
		t.Fatalf("static calls = %d, want 1", static.calls)
	}
	if records.Value() == 0 {
		t.Fatal("query did not journal its round")
	}
	if err := pm.Barrier(); err != nil {
		t.Fatal(err)
	}
	pm.Crash()

	// "Restart": a second server over the same data directory, fresh backend.
	static2 := &fakeBackend{name: "static", suffix: hostDN(),
		attrs: static.attrs, ttl: time.Hour, entries: static.entries}
	s2 := New(Config{Suffix: hostDN(), Clock: clock, WarmGrace: 30 * time.Minute})
	s2.Register(static2)
	if _, n, _ := bootPersisted(t, s2, dir, clock); n == 0 {
		t.Fatal("recovery restored nothing")
	}
	w := &sink{}
	s2.Search(anonReq(), req, w)
	if static2.calls != 0 {
		t.Fatalf("restored cache should serve without invocation, calls = %d", static2.calls)
	}
	if len(w.entries) != 1 || w.entries[0].First("hn") != "hostX" {
		t.Fatalf("restored answer wrong: %v", w.entries)
	}

	// Past the warm grace the restored entry expires and the backend runs.
	clock.Advance(31 * time.Minute)
	s2.Search(anonReq(), req, &sink{})
	if static2.calls != 1 {
		t.Fatalf("post-grace query should invoke live backend, calls = %d", static2.calls)
	}
}

// TestWarmRestoreSharedSuffix: two backends on the same suffix keep separate
// rounds in the journal — a refresh of one never replaces the other's, and
// recovery hands each round back to the backend that produced it, so a wide
// query after restart returns no duplicates.
func TestWarmRestoreSharedSuffix(t *testing.T) {
	clock := softstate.NewFakeClock()
	dir := t.TempDir()
	cfg := Config{Suffix: hostDN(), Clock: clock, WarmGrace: time.Hour}
	s1 := New(cfg)
	static := &fakeBackend{name: "static", suffix: hostDN(),
		attrs: []string{"hn", "system"}, ttl: time.Hour,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN()).
			Add("objectclass", "computer").Add("hn", "hostX").Add("system", "linux")}}
	dynamic := &fakeBackend{name: "dynamic", suffix: hostDN(),
		attrs: []string{"perf", "load5"}, ttl: time.Hour,
		entries: []*ldap.Entry{ldap.NewEntry(hostDN().ChildAVA("perf", "load")).
			Add("objectclass", "perf", "loadaverage").Add("perf", "load").Add("load5", "1.5")}}
	s1.Register(static)
	s1.Register(dynamic)
	pm, _, _ := bootPersisted(t, s1, dir, clock)
	wide := &ldap.SearchRequest{BaseDN: "hn=hostX, o=center1", Scope: ldap.ScopeWholeSubtree}
	s1.Search(anonReq(), wide, &sink{})
	if static.calls != 1 || dynamic.calls != 1 {
		t.Fatalf("live calls = %d/%d, want 1/1", static.calls, dynamic.calls)
	}
	pm.Close()

	s2 := New(cfg)
	static2 := &fakeBackend{name: "static", suffix: hostDN(), attrs: static.attrs,
		ttl: time.Hour, entries: static.entries}
	dynamic2 := &fakeBackend{name: "dynamic", suffix: hostDN(), attrs: dynamic.attrs,
		ttl: time.Hour, entries: dynamic.entries}
	s2.Register(static2)
	s2.Register(dynamic2)
	if _, n, _ := bootPersisted(t, s2, dir, clock); n != 2 {
		t.Fatalf("restored %d entries, want 2 (one per backend, no cross-assignment)", n)
	}
	w := &sink{}
	s2.Search(anonReq(), wide, w)
	if static2.calls != 0 || dynamic2.calls != 0 {
		t.Fatalf("restored caches should serve without invocation, calls = %d/%d",
			static2.calls, dynamic2.calls)
	}
	if len(w.entries) != 2 {
		t.Fatalf("wide query after restore returned %d entries, want 2 (no duplicates): %v",
			len(w.entries), w.entries)
	}
	seen := map[string]bool{}
	for _, e := range w.entries {
		dn := e.DN.String()
		if seen[dn] {
			t.Fatalf("duplicate entry %q after warm restore", dn)
		}
		seen[dn] = true
	}
}
