package giis

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// The reference oracle: the child set and the name index rebuilt from the
// registry on every call, the way the directory produced them before the
// child table. The table must agree with it after every transition.

// buildChildren parses the live registry into the sorted child set.
func (s *Server) buildChildren() []Child {
	items := s.receiver.Registry.Live() // sorted by key, which breaks URL ties
	out := make([]Child, 0, len(items))
	for _, it := range items {
		m, ok := it.Payload.(*grrp.Message)
		if !ok {
			continue
		}
		url, err := ldap.ParseURL(m.ServiceURL)
		if err != nil {
			continue
		}
		suffix, err := ldap.ParseDN(m.SuffixDN)
		if err != nil {
			continue
		}
		view := suffix
		if !suffix.Equal(s.cfg.Suffix) && !suffix.IsDescendantOf(s.cfg.Suffix) {
			view = suffix.Under(s.cfg.Suffix)
		}
		out = append(out, Child{URL: url, Suffix: suffix, ViewSuffix: view, MDSType: m.MDSType,
			VO: m.VO, ExpiresAt: it.ExpiresAt, LastRefresh: it.LastRefresh, Recovered: it.Recovered,
			serviceKey: url.ServiceKey(), suffix: suffix.String()})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].URL.String() < out[j].URL.String() })
	return out
}

// childIndexEntry is the name-index view of one registration.
func (s *Server) childIndexEntry(c Child) *ldap.Entry {
	e := ldap.NewEntry(s.cfg.Suffix.ChildAVA("mds-child", c.URL.String())).
		Add("objectclass", "mdsservice", "service").
		Add("url", c.URL.String()).
		Add("mdstype", c.MDSType).
		Add("vo", c.VO).
		Add("suffix", c.ViewSuffix.String()).
		Add("providersuffix", c.Suffix.String())
	if c.Recovered {
		e.Add("recovered", "TRUE")
	}
	return e
}

// localEntries materialises every local entry: the directory's own service
// object and one index entry per child, in result (SortEntries) order.
func (s *Server) localEntries(children []Child) []*ldap.Entry {
	local := []*ldap.Entry{ldap.NewEntry(s.cfg.Suffix.ChildAVA("mds-service", s.cfg.Name)).
		Add("objectclass", "mdsservice", "service").
		Add("url", s.cfg.SelfURL.String()).
		Add("mdstype", "giis").
		Add("provider", fmt.Sprintf("%d", len(children)))}
	for _, c := range children {
		local = append(local, s.childIndexEntry(c))
	}
	ldap.SortEntries(local)
	return local
}

// localSearch answers the local part of a search by testing each local entry
// against scope, the interpreted filter and the size limit.
func localSearch(local []*ldap.Entry, op *ldap.SearchRequest) ([]*ldap.Entry, ldap.ResultCode) {
	base := ldap.MustParseDN(op.BaseDN)
	var out []*ldap.Entry
	sendLocal := func(e *ldap.Entry) error {
		if !e.DN.WithinScope(base, op.Scope) {
			return nil
		}
		if op.Filter != nil && !op.Filter.Matches(e) {
			return nil
		}
		if op.SizeLimit > 0 && int64(len(out)) >= op.SizeLimit {
			return errSizeLimit
		}
		out = append(out, e.Select(op.Attributes))
		return nil
	}
	for _, e := range local {
		if err := sendLocal(e); err != nil {
			return out, ldap.ResultSizeLimitExceeded
		}
	}
	return out, ldap.ResultSuccess
}

func render(entries []*ldap.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out
}

// tableRig drives one directory's registry through every kind of transition.
type tableRig struct {
	t     *testing.T
	rng   *rand.Rand
	clock *softstate.FakeClock
	s     *Server
	next  int // next unused provider number
	// members and gen are the membership and table generation at the last
	// check.
	members []Child
	gen     uint64
}

func (r *tableRig) message(id int, ttl time.Duration) *grrp.Message {
	now := r.clock.Now()
	// Sites are spelled in two cases, which name one view position.
	site := fmt.Sprintf([]string{"ou=site%d", "OU=Site%d"}[r.rng.Intn(2)], r.rng.Intn(3))
	suffix := fmt.Sprintf("hn=p%d, %s, vo=alliance, o=grid", id, site)
	switch r.rng.Intn(9) {
	case 0, 1, 2: // grafted under the suffix
		suffix = fmt.Sprintf("hn=p%d, o=elsewhere%d", id, r.rng.Intn(2))
	case 3: // a whole site: the views of the hosts above nest inside it
		suffix = site + ", vo=alliance, o=grid"
	case 4: // a multi-AVA RDN
		suffix = fmt.Sprintf("hn=p%d+cn=c%d, %s, vo=alliance, o=grid", id, id%2, site)
	case 5: // the directory's own suffix (a replica of it)
		suffix = "vo=alliance, o=grid"
	}
	return &grrp.Message{Type: grrp.TypeRegister, MDSType: []string{"gris", "giis"}[r.rng.Intn(2)],
		ServiceURL: fmt.Sprintf("sim://p%d-node:389", id), VO: fmt.Sprintf("vo%d", r.rng.Intn(3)),
		SuffixDN: suffix, IssuedAt: now, ValidUntil: now.Add(ttl)}
}

func (r *tableRig) ttl() time.Duration { return time.Duration(5+r.rng.Intn(60)) * time.Second }

// live picks a random live registration's last message, or nil.
func (r *tableRig) live() *grrp.Message {
	items := r.s.receiver.Registry.Live()
	if len(items) == 0 {
		return nil
	}
	m := *items[r.rng.Intn(len(items))].Payload.(*grrp.Message)
	now := r.clock.Now()
	m.IssuedAt, m.ValidUntil = now, now.Add(r.ttl())
	return &m
}

func (r *tableRig) step() string {
	reg := r.s.receiver.Registry
	switch r.rng.Intn(9) {
	case 0, 1: // join
		r.next++
		r.s.Ingest(r.message(r.next, r.ttl()))
		return "join"
	case 2: // plain refresh
		if m := r.live(); m != nil {
			r.s.Ingest(m)
		}
		return "refresh"
	case 3: // refresh that re-describes the registration
		m := r.live()
		if m == nil {
			return "redescribe (none live)"
		}
		switch r.rng.Intn(3) {
		case 0:
			m.VO += "x"
		case 1:
			m.SuffixDN = "ou=moved, " + m.SuffixDN
		case 2:
			m.MDSType = "giis"
			m.SuffixDN = "not a dn" // stops being a child at all
		}
		r.s.Ingest(m)
		return "redescribe"
	case 4: // let the clock run some registrations out
		r.clock.Advance(time.Duration(1+r.rng.Intn(20)) * time.Second)
		return "advance"
	case 5:
		if m := r.live(); m != nil {
			reg.Remove(m.ServiceURL)
		}
		return "remove"
	case 6: // crash recovery: restored registrations are marked until they refresh
		var items []softstate.Item
		for i := 0; i < 1+r.rng.Intn(3); i++ {
			r.next++
			m := r.message(r.next, r.ttl())
			items = append(items, softstate.Item{Key: m.ServiceURL, Payload: m,
				ExpiresAt: m.ValidUntil, JoinedAt: m.IssuedAt, LastRefresh: m.IssuedAt})
		}
		reg.Restore(items, 10*time.Second)
		return "restore"
	case 7: // confirm a recovered registration
		for _, it := range reg.Live() {
			if it.Recovered {
				m := *it.Payload.(*grrp.Message)
				now := r.clock.Now()
				m.IssuedAt, m.ValidUntil = now, now.Add(r.ttl())
				r.s.Ingest(&m)
				return "confirm recovered"
			}
		}
		return "confirm recovered (none)"
	default: // a storm: joins and refreshes in one registry pass
		var batch []*grrp.Message
		for i := 0; i < 2+r.rng.Intn(6); i++ {
			if m := r.live(); m != nil && r.rng.Intn(2) == 0 {
				batch = append(batch, m)
				continue
			}
			r.next++
			batch = append(batch, r.message(r.next, r.ttl()))
		}
		r.s.IngestBatch(batch)
		return "batch"
	}
}

// sameChildren is reflect.DeepEqual with no child set and an empty one equal.
func sameChildren(a, b []Child) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// membership is a child set without its liveness: what a join, a leave or
// a re-description changes and a plain refresh does not.
func membership(children []Child) []Child {
	out := slices.Clone(children)
	for i := range out {
		out[i].ExpiresAt, out[i].LastRefresh = time.Time{}, time.Time{}
	}
	return out
}

// regionProbes are the (base, scope) pairs the view tree is checked on: the
// root, the suffix and its parent, sites and grafted views in both spellings,
// a multi-AVA view in both AVA orders (which name different entries), and a
// random child's view, its parent and an entry below it.
func (r *tableRig) regionProbes(children []Child) []string {
	probes := []string{"", "o=grid", "vo=alliance, o=grid", "VO=Alliance, O=Grid",
		"ou=site1, vo=alliance, o=grid", "OU=SITE2, vo=alliance, o=grid", "ou=nowhere, o=grid",
		"o=elsewhere0, vo=alliance, o=grid", "O=ELSEWHERE1, vo=alliance, o=grid", "o=elsewhere1",
		"hn=p3+cn=c1, ou=site0, vo=alliance, o=grid", "CN=c1+HN=p3, ou=site0, vo=alliance, o=grid"}
	if len(children) > 0 {
		v := children[r.rng.Intn(len(children))].ViewSuffix
		probes = append(probes, v.String(), strings.ToUpper(v.Parent().String()),
			v.ChildAVA("cn", "leaf").String())
	}
	return probes
}

// check compares Children(), the view tree's regions, the table generation
// and every name-index search with the oracle. Region children carry the
// deadline a chained hop caps its query-cache entry at, so comparing them
// with the registry's checks the cap sees every refresh too.
func (r *tableRig) check(after string) {
	r.t.Helper()
	s := r.s
	want := s.buildChildren()
	if got := s.Children(); !sameChildren(got, want) {
		r.t.Fatalf("after %s: Children()\n got %+v\nwant %+v", after, got, want)
	}
	_, gen := s.table.records()
	if moved := !sameChildren(membership(want), r.members); moved != (gen != r.gen) {
		r.t.Fatalf("after %s: membership changed %v, but the generation went %d → %d", after, moved, r.gen, gen)
	}
	r.members, r.gen = membership(want), gen
	for _, probe := range r.regionProbes(want) {
		base := ldap.MustParseDN(probe)
		for _, scope := range []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeSingleLevel, ldap.ScopeWholeSubtree} {
			var inRegion []Child
			for _, c := range want {
				if _, _, ok := translateRegion(base, scope, &c); ok {
					inRegion = append(inRegion, c)
				}
			}
			if got := s.table.region(base, scope); !sameChildren(got, inRegion) {
				r.t.Fatalf("after %s: region base=%q scope=%d\n got %+v\nwant %+v", after, probe, scope, got, inRegion)
			}
		}
	}
	local := s.localEntries(want)
	child := "mds-child=sim://nobody:389, vo=alliance, o=grid"
	vo := "vo0"
	if len(want) > 0 {
		c := want[r.rng.Intn(len(want))]
		child, vo = s.cfg.Suffix.ChildAVA("mds-child", c.URL.String()).String(), c.VO
	}
	bases := []string{"vo=alliance, o=grid", child, "mds-service=giis.vo, vo=alliance, o=grid", "o=grid"}
	filters := []*ldap.Filter{ldap.MustParseFilter("(vo=" + vo + ")"),
		ldap.MustParseFilter("(objectclass=mdsservice)"), ldap.MustParseFilter("(recovered=*)"),
		ldap.MustParseFilter("(!(mdstype=gris))"), nil}
	for _, base := range bases {
		for _, scope := range []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeSingleLevel, ldap.ScopeWholeSubtree} {
			for _, filter := range filters {
				for _, limit := range []int64{0, 1, 3} {
					for _, attrs := range [][]string{nil, {"*"}, {"vo", "URL"}} {
						op := &ldap.SearchRequest{BaseDN: base, Scope: scope, Filter: filter,
							SizeLimit: limit, Attributes: attrs}
						wantEntries, wantCode := localSearch(local, op)
						w := &sink{}
						res := s.Search(&ldap.Request{Ctx: context.Background()}, op, w)
						if res.Code != wantCode || !reflect.DeepEqual(render(w.entries), render(wantEntries)) {
							r.t.Fatalf("after %s: search base=%q scope=%d filter=%v limit=%d attrs=%v\n got %v %q\nwant %v %q",
								after, base, scope, filter, limit, attrs, res.Code, render(w.entries),
								wantCode, render(wantEntries))
						}
					}
				}
			}
		}
	}
}

// TestChildTableEqualsRebuild drives seeded random sequences of every
// registry transition and checks, after each one, that the incrementally
// maintained child table, view tree and name index equal a rebuild from the
// registry, and that only membership changes moved the generation.
func TestChildTableEqualsRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			clock := softstate.NewFakeClock()
			// The referral strategy answers the data part without dialling.
			s := New(Config{Name: "giis.vo", Suffix: ldap.MustParseDN("vo=alliance, o=grid"),
				SelfURL: ldap.MustParseURL("sim://giis-node:389"), Clock: clock, Strategy: preset("referral", StrategyConfig{})})
			defer s.Close()
			r := &tableRig{t: t, rng: rand.New(rand.NewSource(seed)), clock: clock, s: s, gen: 1}
			if seed%2 == 0 {
				// Ownership refusals: the table must never see a refused key.
				s.receiver.Registry.SetOwns(func(key string, _ any) bool { return len(key)%3 != 0 })
			}
			if seed > 2 {
				r.check("start") // these seeds build the index first and maintain it; the others build it mid-run
			}
			sawRecovered, sawConfirmed := false, false
			for i := 0; i < 150; i++ {
				what := r.step()
				r.check(fmt.Sprintf("step %d (%s)", i, what))
				recovered := 0
				for _, c := range s.Children() {
					if c.Recovered {
						recovered++
					}
				}
				marked := &sink{}
				s.Search(&ldap.Request{Ctx: context.Background()}, &ldap.SearchRequest{BaseDN: "vo=alliance, o=grid",
					Scope: ldap.ScopeSingleLevel, Filter: ldap.MustParseFilter("(recovered=TRUE)")}, marked)
				if len(marked.entries) != recovered {
					t.Fatalf("step %d: %d children recovered, %d marked in the index", i, recovered, len(marked.entries))
				}
				sawRecovered = sawRecovered || recovered > 0
				sawConfirmed = sawConfirmed || (what == "confirm recovered")
			}
			if !sawRecovered || !sawConfirmed {
				t.Fatalf("sequence never exercised the recovered mark (appeared %v, confirmed %v)",
					sawRecovered, sawConfirmed)
			}
		})
	}
}

// TestCollidingURLsShareOneIndexEntry: registrations whose URLs render to
// the same mds-child DN are both children but share one name-index entry,
// which outlives either of them alone.
func TestCollidingURLsShareOneIndexEntry(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{Name: "d", Suffix: ldap.MustParseDN("o=grid"), Clock: clock, Strategy: preset("referral", StrategyConfig{})})
	defer s.Close()
	now := clock.Now()
	register := func(url string, ttl time.Duration) {
		s.Ingest(&grrp.Message{Type: grrp.TypeRegister, ServiceURL: url, MDSType: "gris",
			SuffixDN: "hn=h, o=grid", IssuedAt: now, ValidUntil: now.Add(ttl)})
	}
	indexed := func() int {
		w := &sink{}
		s.Search(&ldap.Request{Ctx: context.Background()}, &ldap.SearchRequest{BaseDN: "o=grid",
			Scope: ldap.ScopeSingleLevel, Filter: ldap.MustParseFilter("(mdstype=gris)")}, w)
		return len(w.entries)
	}
	for _, first := range []time.Duration{time.Minute, time.Hour} {
		register("sim://Host:389", first)
		register("sim://host:389", time.Hour+time.Minute-first)
		register("sim://other:389", 3*time.Hour)
		if n, idx := len(s.Children()), indexed(); n != 3 || idx != 2 {
			t.Fatalf("%d children, %d index entries; want 3 and 2", n, idx)
		}
		clock.Advance(2 * time.Minute) // whichever lapses first, the other keeps the entry
		if n, idx := len(s.Children()), indexed(); n != 2 || idx != 2 {
			t.Fatalf("after one lapse: %d children, %d index entries; want 2 and 2", n, idx)
		}
		clock.Advance(time.Hour)
		if n, idx := len(s.Children()), indexed(); n != 1 || idx != 1 {
			t.Fatalf("after both lapsed: %d children, %d index entries; want 1 and 1", n, idx)
		}
		now = clock.Now()
	}
}

// TestAckedAddVisibleExpiredInvisible is the Fig. 4 oracle in process: with
// registrations arriving beside searches, a search begun after Ingest
// returned lists that provider, and a search begun at or after a provider's
// deadline does not.
func TestAckedAddVisibleExpiredInvisible(t *testing.T) {
	const writers, searchers, perWriter = 4, 4, 150
	clock := softstate.NewFakeClock()
	s := New(Config{Name: "d", Suffix: ldap.MustParseDN("o=grid"), Clock: clock, Strategy: preset("referral", StrategyConfig{})})
	defer s.Close()

	// tick excludes clock advances from in-flight Ingests, so a provider's
	// registry deadline is exactly the ValidUntil its writer chose.
	var tick sync.RWMutex
	var deadlines sync.Map // url → time.Time, stored before the Ingest
	var acked sync.Map     // url → time.Time, stored after Ingest returned
	var writing sync.WaitGroup
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				url := fmt.Sprintf("sim://w%d-p%d:389", w, i)
				tick.RLock()
				now := clock.Now()
				until := now.Add(time.Duration(1+rng.Intn(40)) * 100 * time.Millisecond)
				deadlines.Store(url, until)
				ok := s.Ingest(&grrp.Message{Type: grrp.TypeRegister, ServiceURL: url, MDSType: "gris",
					SuffixDN: fmt.Sprintf("hn=w%d-p%d, o=grid", w, i), IssuedAt: now, ValidUntil: until})
				tick.RUnlock()
				if !ok {
					t.Errorf("registration %s refused", url)
					return
				}
				acked.Store(url, until)
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			tick.Lock()
			clock.Advance(100 * time.Millisecond)
			tick.Unlock()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var searching sync.WaitGroup
	var searches atomic.Int64
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeSingleLevel,
		Filter: ldap.MustParseFilter("(mdstype=gris)"), Attributes: []string{"url"}}
	for i := 0; i < searchers; i++ {
		searching.Add(1)
		go func() {
			defer searching.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := map[string]time.Time{}
				acked.Range(func(k, v any) bool { before[k.(string)] = v.(time.Time); return true })
				t0 := clock.Now()
				w := &sink{}
				s.Search(&ldap.Request{Ctx: context.Background()}, op, w)
				t1 := clock.Now()
				listed := map[string]bool{}
				for _, e := range w.entries {
					url := e.First("url")
					listed[url] = true
					if until, ok := deadlines.Load(url); !ok || !until.(time.Time).After(t0) {
						t.Errorf("search begun at %v lists %s, which lapsed at %v", t0, url, until)
					}
				}
				for url, until := range before {
					if until.After(t1) && !listed[url] {
						t.Errorf("search begun after %s was acked (live until %v, search ended %v) does not list it",
							url, until, t1)
					}
				}
				searches.Add(1)
			}
		}()
	}
	writing.Wait()
	close(done)
	searching.Wait()
	if searches.Load() == 0 {
		t.Fatal("no search completed beside the writers")
	}
}

// TestRefreshDoesNotReparse pins the cost of a plain refresh beside searches
// at 1,000 children: the refresh, the Children() copy and a name-index
// search after it allocate about a dozen objects, where re-parsing and
// re-materialising the registrations took about 41,000 — so no ParseURL or
// ParseDN of a registration can be hiding in there.
func TestRefreshDoesNotReparse(t *testing.T) {
	const providers = 1000
	s := New(Config{Name: "d", Suffix: ldap.MustParseDN("o=grid"), Strategy: preset("referral", StrategyConfig{})})
	defer s.Close()
	now := time.Now()
	msgs := make([]*grrp.Message, providers)
	for i := range msgs {
		msgs[i] = &grrp.Message{Type: grrp.TypeRegister, MDSType: "gris", VO: fmt.Sprintf("vo%d", i%20),
			ServiceURL: fmt.Sprintf("ldap://p%d.grid.example:2135", i),
			SuffixDN:   fmt.Sprintf("hn=p%d, ou=providers, o=grid", i),
			IssuedAt:   now, ValidUntil: now.Add(time.Hour)}
	}
	if n := s.IngestBatch(msgs); n != providers {
		t.Fatalf("accepted %d of %d", n, providers)
	}
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeSingleLevel,
		Filter: ldap.MustParseFilter("(&(objectclass=mdsservice)(vo=vo7))")}
	req := &ldap.Request{Ctx: context.Background()}
	w := &sink{}
	s.Search(req, op, w) // builds the index
	if len(w.entries) != providers/20 {
		t.Fatalf("index search returned %d entries, want %d", len(w.entries), providers/20)
	}
	k := 0
	allocs := testing.AllocsPerRun(50, func() {
		m := *msgs[k%providers] // a fresh message with the same description, as off the wire
		k++
		if !s.Ingest(&m) {
			t.Fatal("refresh refused")
		}
		if len(s.Children()) != providers {
			t.Fatal("child set changed size")
		}
		w.entries = w.entries[:0]
		s.Search(req, op, w)
	})
	// About 10: Children() is one copy of the set now, built on request.
	if allocs > 200 {
		t.Fatalf("refresh + Children() + index search allocated %.0f objects, want at most 200", allocs)
	}
}

// TestRegionAtTheRoot: on a directory whose suffix is the root DN, a child
// serving the root itself hangs at the tree's root, and every region holds it.
func TestRegionAtTheRoot(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{Name: "d", Suffix: ldap.DN{}, Clock: clock, Strategy: preset("referral", StrategyConfig{})})
	defer s.Close()
	now := clock.Now()
	for i, suffix := range []string{"", "o=grid", "hn=h, o=grid"} {
		s.Ingest(&grrp.Message{Type: grrp.TypeRegister, MDSType: "gris", ServiceURL: fmt.Sprintf("sim://c%d:389", i),
			SuffixDN: suffix, IssuedAt: now, ValidUntil: now.Add(time.Hour)})
	}
	children := s.Children()
	if len(children) != 3 {
		t.Fatalf("%d children, want 3", len(children))
	}
	for _, probe := range []string{"", "o=grid", "hn=h, o=grid", "cn=x, hn=h, o=grid", "o=other"} {
		base := ldap.MustParseDN(probe)
		for _, scope := range []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeSingleLevel, ldap.ScopeWholeSubtree} {
			var want []Child
			for _, c := range children {
				if _, _, ok := translateRegion(base, scope, &c); ok {
					want = append(want, c)
				}
			}
			if got := s.table.region(base, scope); !sameChildren(got, want) || len(got) == 0 {
				t.Fatalf("region base=%q scope=%d\n got %+v\nwant %+v", probe, scope, got, want)
			}
		}
	}
}

// indexDirectory is a directory holding providers registrations, 50 to a
// VO, with its name index built.
func indexDirectory(t *testing.T, providers int) (*Server, []*grrp.Message) {
	t.Helper()
	s := New(Config{Name: "d", Suffix: ldap.MustParseDN("o=grid"), Strategy: preset("referral", StrategyConfig{})})
	t.Cleanup(s.Close)
	now := time.Now()
	msgs := make([]*grrp.Message, providers)
	for i := range msgs {
		msgs[i] = &grrp.Message{Type: grrp.TypeRegister, MDSType: "gris", VO: fmt.Sprintf("vo%d", i%(providers/50)),
			ServiceURL: fmt.Sprintf("ldap://p%d.grid.example:2135", i),
			SuffixDN:   fmt.Sprintf("hn=p%d, ou=providers, o=grid", i),
			IssuedAt:   now, ValidUntil: now.Add(time.Hour)}
	}
	if n := s.IngestBatch(msgs); n != providers {
		t.Fatalf("accepted %d of %d", n, providers)
	}
	return s, msgs
}

// TestIndexSearchAllocationBudget: a refresh and the one-level VO search
// after it allocate the same at 1,000 and at 10,000 providers — no part of
// the child set is copied or scanned per search — and stay within a fixed
// budget. The region walk finds no child to chain to (their views sit two
// levels down) and allocates nothing for that.
func TestIndexSearchAllocationBudget(t *testing.T) {
	const budget = 12
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeSingleLevel,
		Filter: ldap.MustParseFilter("(&(objectclass=mdsservice)(vo=vo7))")}
	req := &ldap.Request{Ctx: context.Background()}
	var per [2]float64
	for i, providers := range []int{1000, 10000} {
		s, msgs := indexDirectory(t, providers)
		w := &sink{}
		s.Search(req, op, w) // builds the index
		if len(w.entries) != 50 {
			t.Fatalf("%d providers: index search returned %d entries, want 50", providers, len(w.entries))
		}
		k := 0
		per[i] = testing.AllocsPerRun(100, func() {
			if !s.Ingest(msgs[k%providers]) {
				t.Fatal("refresh refused")
			}
			k++
			w.entries = w.entries[:0]
			s.Search(req, op, w)
		})
	}
	t.Logf("refresh + one-level VO search: %.0f allocations at 1k providers, %.0f at 10k (budget %d)",
		per[0], per[1], budget)
	if per[0] != per[1] || per[1] > budget {
		t.Fatalf("allocations grew with the provider count or passed the budget: %.0f at 1k, %.0f at 10k, budget %d",
			per[0], per[1], budget)
	}
}
