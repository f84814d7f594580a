package gris

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// refWithin decides scope on Normalize keys — the definition the
// allocation-free DN comparisons must agree with — so the reference scan
// shares nothing with the indexed path it checks.
func refWithin(d, base ldap.DN, scope ldap.Scope) bool {
	equal := d.Normalize() == base.Normalize()
	under := len(d) > len(base) && ldap.DN(d[len(d)-len(base):]).Normalize() == base.Normalize()
	switch scope {
	case ldap.ScopeBaseObject:
		return equal
	case ldap.ScopeSingleLevel:
		return under && len(d) == len(base)+1
	default:
		return equal || under
	}
}

// refSearch is the GRIS this package had before the indexed snapshot, as a
// model: scan every entry of every backend, filter uncompiled, sort, then
// apply policy and the size limit. The one modelled difference is the
// snapshot's DN keying: a cached backend that returns one DN twice serves
// the later entry only.
func refSearch(backends []*fakeBackend, policy *gsi.Policy, base ldap.DN, scope ldap.Scope,
	filter *ldap.Filter, limit int64) (want []*ldap.Entry, truncated bool) {
	var matched []*ldap.Entry
	for _, b := range backends {
		entries := b.entries
		if b.ttl > 0 {
			last := map[string]int{}
			for i, e := range entries {
				last[e.DN.Normalize()] = i
			}
			var kept []*ldap.Entry
			for i, e := range entries {
				if last[e.DN.Normalize()] == i {
					kept = append(kept, e)
				}
			}
			entries = kept
		}
		for _, e := range entries {
			if refWithin(e.DN, base, scope) && (filter == nil || filter.Matches(e)) {
				matched = append(matched, e)
			}
		}
	}
	sort.SliceStable(matched, func(i, j int) bool {
		if len(matched[i].DN) != len(matched[j].DN) {
			return len(matched[i].DN) < len(matched[j].DN)
		}
		return matched[i].DN.Normalize() < matched[j].DN.Normalize()
	})
	for _, e := range matched {
		if policy != nil {
			if e = policy.Redact(nil, e); e == nil {
				continue
			}
		}
		if limit > 0 && int64(len(want)) >= limit {
			return want, true
		}
		want = append(want, e)
	}
	return want, false
}

// randomBackends builds 2–5 backends over shared, nested and disjoint
// suffixes, cached and TTL-0 mixed. DNs are unique across backends (each
// carries its backend's index) so the merged order is total; within a
// cached backend a DN is sometimes produced twice with different content
// (a TTL-0 backend would serve both, in no defined order).
func randomBackends(rng *rand.Rand) []*fakeBackend {
	suffixes := []string{"o=grid", "ou=a, o=grid", "ou=a, o=grid", "ou=b, o=grid", "hn=n1, ou=a, o=grid"}
	classes := []string{"computer", "storage"}
	tags := []string{"red", "blue", "RED"}
	var out []*fakeBackend
	for bi := 0; bi < 2+rng.Intn(4); bi++ {
		suffix := ldap.MustParseDN(suffixes[rng.Intn(len(suffixes))])
		b := &fakeBackend{name: fmt.Sprintf("b%d", bi), suffix: suffix}
		if rng.Intn(3) > 0 {
			b.ttl = time.Hour
		}
		if rng.Intn(2) == 0 {
			b.attrs = []string{"hn", "tag", "load"}
		}
		for i := 0; i < 5+rng.Intn(25); i++ {
			name := fmt.Sprintf("b%d-%d", bi, i)
			dn := suffix.ChildAVA("hn", name)
			if rng.Intn(3) == 0 {
				dn = dn.ChildAVA("Perf", "load")
			}
			e := ldap.NewEntry(dn).Add("objectclass", classes[rng.Intn(len(classes))]).
				Add("load", fmt.Sprint(rng.Intn(20)))
			if rng.Intn(4) > 0 { // the rest carry nothing a restricted policy reveals
				e.Add("hn", name).Add("tag", tags[rng.Intn(len(tags))])
			}
			b.entries = append(b.entries, e)
			if b.ttl > 0 && rng.Intn(8) == 0 {
				again := ldap.MustParseDN(strings.ToUpper(dn.String()))
				b.entries = append(b.entries, ldap.NewEntry(again).
					Add("objectclass", "computer").Add("hn", name).Add("tag", "second"))
			}
		}
		out = append(out, b)
	}
	return out
}

// TestIndexedSearchEqualsReferenceScan: over randomized backend sets, the
// GRIS answers every (base, scope, filter, size limit, policy) exactly as
// the reference scan does — same entries, same order, same result code.
func TestIndexedSearchEqualsReferenceScan(t *testing.T) {
	bases := []string{
		"",                             // above the GRIS suffix
		"o=grid",                       // at it
		"ou=a, o=grid", "OU=B, O=Grid", // at backend suffixes
		"hn=n1, ou=a, o=grid",
		"hn=b0-1, o=grid", "hn=b1-2, ou=a, o=grid", "perf=load, hn=b0-3, o=grid", // below
		"hn=absent, ou=a, o=grid", "ou=zzz, o=grid", // inside the suffix, empty
		"o=elsewhere", // outside
	}
	filters := []string{
		"", "(objectclass=computer)", "(tag=red)", "(hn=b1-3)", "(tag=*)",
		"(&(objectclass=computer)(tag=blue))", "(|(tag=red)(tag=second))",
		// No index handle: substring, negation, ordering.
		"(hn=b1*)", "(!(tag=red))", "(load>=10)",
	}
	policies := []*gsi.Policy{nil, gsi.NewPolicy(gsi.PostureRestricted).Grant("anonymous", "hn", "tag")}
	for seed := int64(0); seed < 6; seed++ {
		backends := randomBackends(rand.New(rand.NewSource(seed)))
		for _, policy := range policies {
			s := New(Config{Suffix: ldap.MustParseDN("o=grid"), Clock: softstate.NewFakeClock(), Policy: policy})
			for _, b := range backends {
				s.Register(b)
			}
			for _, fs := range filters {
				var f *ldap.Filter
				if fs != "" {
					f = ldap.MustParseFilter(fs)
				}
				if policy != nil && !policy.FilterAuthorized(nil, f, ldap.NewEntry(nil)) {
					continue // refused before evaluation; nothing to compare
				}
				for _, bs := range bases {
					base := ldap.MustParseDN(bs)
					for scope := ldap.ScopeBaseObject; scope <= ldap.ScopeWholeSubtree; scope++ {
						if base.IsZero() && scope == ldap.ScopeBaseObject {
							continue // the root DSE, not a namespace search
						}
						for _, limit := range []int64{0, 1, 3, 1000} {
							where := fmt.Sprintf("seed %d policy %v filter %q base %q scope %d limit %d",
								seed, policy != nil, fs, bs, scope, limit)
							want, truncated := refSearch(backends, policy, base, scope, f, limit)
							w := &sink{}
							res := s.Search(anonReq(), &ldap.SearchRequest{BaseDN: bs, Scope: scope,
								Filter: f, SizeLimit: limit}, w)
							if res.Code == ldap.ResultNoSuchObject {
								if len(want) != 0 {
									t.Fatalf("%s: noSuchObject, reference finds %d entries", where, len(want))
								}
								continue
							}
							wantCode := ldap.ResultSuccess
							if truncated {
								wantCode = ldap.ResultSizeLimitExceeded
							}
							if res.Code != wantCode || len(w.entries) != len(want) {
								t.Fatalf("%s: code %d with %d entries, reference code %d with %d",
									where, res.Code, len(w.entries), wantCode, len(want))
							}
							for i, got := range w.entries {
								if got.DN.Normalize() != want[i].DN.Normalize() || fingerprint(got) != fingerprint(want[i]) {
									t.Fatalf("%s: entry %d is %q {%s}, reference %q {%s}", where, i,
										got.DN, fingerprint(got), want[i].DN, fingerprint(want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDuplicateDNKeepsLast pins the snapshot's DN keying: a cached provider
// that returns the same DN twice serves the later entry (the slice cache it
// replaced served both), through the live cache, the journaled round, and
// a restore from it alike.
func TestDuplicateDNKeepsLast(t *testing.T) {
	clock := softstate.NewFakeClock()
	dir := t.TempDir()
	cfg := Config{Suffix: hostDN(), Clock: clock}
	entries := []*ldap.Entry{
		ldap.NewEntry(hostDN().ChildAVA("perf", "load")).Add("objectclass", "perf").Add("round", "first"),
		ldap.NewEntry(hostDN()).Add("objectclass", "computer"),
		ldap.NewEntry(ldap.MustParseDN("PERF=Load, HN=hostx, O=center1")).Add("objectclass", "perf").Add("round", "second"),
	}
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=perf)")}
	check := func(s *Server, what string) {
		t.Helper()
		w := &sink{}
		s.Search(anonReq(), req, w)
		if len(w.entries) != 1 || w.entries[0].First("round") != "second" {
			t.Fatalf("%s: got %v, want the later duplicate only", what, w.entries)
		}
	}
	s1 := New(cfg)
	s1.Register(&fakeBackend{name: "dup", suffix: hostDN(), ttl: time.Hour, entries: entries})
	pm, _, _ := bootPersisted(t, s1, dir, clock)
	check(s1, "live cache")
	pm.Close()

	s2 := New(cfg)
	restarted := &fakeBackend{name: "dup", suffix: hostDN(), ttl: time.Hour}
	s2.Register(restarted)
	if _, n, _ := bootPersisted(t, s2, dir, clock); n != 2 {
		t.Fatalf("restored %d entries, want 2 (duplicate collapsed)", n)
	}
	check(s2, "warm restore")
	if restarted.calls != 0 {
		t.Fatalf("restored cache invoked the backend %d times", restarted.calls)
	}
}

// roundBackend returns a fresh result set per invocation, every entry
// stamped with the invocation's round; odd rounds carry one entry more.
type roundBackend struct {
	suffix ldap.DN
	mu     sync.Mutex
	round  int
}

func (b *roundBackend) Name() string            { return "rounds" }
func (b *roundBackend) Suffix() ldap.DN         { return b.suffix }
func (b *roundBackend) Attributes() []string    { return nil }
func (b *roundBackend) CacheTTL() time.Duration { return time.Minute }
func (b *roundBackend) Entries(*Query) ([]*ldap.Entry, error) {
	b.mu.Lock()
	b.round++
	round := b.round
	b.mu.Unlock()
	out := make([]*ldap.Entry, 0, roundSize+1)
	for i := 0; i < roundSize+round%2; i++ {
		out = append(out, ldap.NewEntry(b.suffix.ChildAVA("perf", fmt.Sprint(i))).
			Add("objectclass", "perf").Add("round", fmt.Sprint(round)))
	}
	return out, nil
}

const roundSize = 40

// TestRolloverServesWholeSnapshots: enquiries racing TTL rollovers see one
// provider round in full — the old snapshot or the new one, never a blend.
func TestRolloverServesWholeSnapshots(t *testing.T) {
	clock := softstate.NewFakeClock()
	s := New(Config{Suffix: hostDN(), Clock: clock})
	s.Register(&roundBackend{suffix: hostDN()})
	reqs := []*ldap.SearchRequest{
		{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree},                                                    // tree walk
		{BaseDN: hostDN().String(), Scope: ldap.ScopeSingleLevel, Filter: ldap.MustParseFilter("(objectclass=perf)")}, // index
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(req *ldap.SearchRequest) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := &sink{}
				s.Search(anonReq(), req, w)
				if len(w.entries) == 0 {
					t.Error("enquiry returned nothing")
					return
				}
				round := w.entries[0].First("round")
				var n int
				fmt.Sscan(round, &n)
				if len(w.entries) != roundSize+n%2 {
					t.Errorf("round %s answered with %d entries, want %d", round, len(w.entries), roundSize+n%2)
					return
				}
				for _, e := range w.entries {
					if e.First("round") != round {
						t.Errorf("blend of rounds %s and %s in one answer", round, e.First("round"))
						return
					}
				}
			}
		}(reqs[g%len(reqs)])
	}
	for i := 0; i < 200; i++ {
		clock.Advance(2 * time.Minute)
		s.Search(anonReq(), reqs[0], &sink{}) // force the rollover while readers run
	}
	close(stop)
	wg.Wait()
	if s.Invocations.Value() < 200 {
		t.Fatalf("only %d provider rounds; rollovers were not exercised", s.Invocations.Value())
	}
}
