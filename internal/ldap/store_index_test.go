package ldap

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// findScan is the pre-index linear scan over every entry — the reference
// oracle the property tests compare Find against, and the baseline
// BenchmarkStoreFind measures the index win from. It shares no code with
// the indexed path: scope is decided on Normalize keys (refWithinScope) and
// the filter is evaluated uncompiled.
func (s *Store) findScan(base DN, scope Scope, filter *Filter) []*Entry {
	s.mu.RLock()
	var out []*Entry
	for _, n := range s.nodes {
		e := n.entry
		if e == nil || !refWithinScope(e.DN, base, scope) {
			continue
		}
		if filter != nil && !filter.Matches(e) {
			continue
		}
		out = append(out, e)
	}
	s.mu.RUnlock()
	verifyEntries(out)
	SortEntries(out)
	return out
}

// buildRandomStore fills a store with a randomized DN tree: organizations,
// groups, hosts, and per-host documents, with attribute values drawn from
// small vocabularies so filters hit and miss both ways.
func buildRandomStore(t testing.TB, rng *rand.Rand, hosts int) *Store {
	t.Helper()
	s := NewStore()
	classes := []string{"computer", "storage", "network"}
	tags := []string{"red", "blue", "green", "RED"} // mixed case on purpose
	if err := s.Put(NewEntry(MustParseDN("o=grid")).Add("objectclass", "organization")); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		e := NewEntry(MustParseDN(fmt.Sprintf("ou=g%d, o=grid", g))).
			Add("objectclass", "organizationalUnit")
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hosts; i++ {
		g := rng.Intn(3)
		dn := MustParseDN(fmt.Sprintf("hn=h%d, ou=g%d, o=grid", i, g))
		e := NewEntry(dn).
			Add("objectclass", classes[rng.Intn(len(classes))]).
			Add("hn", fmt.Sprintf("h%d", i)).
			Add("load", fmt.Sprintf("%d", rng.Intn(20)))
		if rng.Intn(2) == 0 {
			e.Add("tag", tags[rng.Intn(len(tags))])
		}
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(4) == 0 {
			doc := NewEntry(MustParseDN(fmt.Sprintf("doc=d%d, hn=h%d, ou=g%d, o=grid", i, i, g))).
				Add("objectclass", "document").
				Add("doc", fmt.Sprintf("d%d", i))
			if err := s.Put(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// propertyFilters is the filter vocabulary for differential tests: every
// indexable shape (equality, presence, AND, OR) plus every fallback shape
// (NOT, substrings, ordering, approx), and nil.
var propertyFilters = []string{
	"",
	"(objectclass=computer)",
	"(objectclass=COMPUTER)",
	"(tag=red)",
	"(tag=*)",
	"(missing=*)",
	"(missing=nothing)",
	"(&(objectclass=computer)(tag=red))",
	"(&(objectclass=computer)(load>=10))",
	"(|(tag=red)(tag=blue))",
	"(|(tag=red)(load<=3))",
	"(!(objectclass=storage))",
	"(hn=h1*)",
	"(hn=*1)",
	"(hn=*h*)",
	"(load>=15)",
	"(load<=2)",
	"(tag~=red)",
	"(&(|(objectclass=computer)(objectclass=network))(tag=*))",
}

func propertyBases(rng *rand.Rand, hosts int) []string {
	return []string{
		"",
		"o=grid",
		"ou=g1, o=grid",
		fmt.Sprintf("hn=h%d, ou=g%d, o=grid", rng.Intn(hosts), rng.Intn(3)),
		"ou=nosuch, o=grid",
	}
}

// TestStoreFindEqualsScanProperty asserts the central index invariant:
// for randomized stores, bases, scopes, and filters, the indexed Find
// returns exactly what the naive full scan returns, in the same order.
func TestStoreFindEqualsScanProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hosts := 20 + rng.Intn(60)
		s := buildRandomStore(t, rng, hosts)
		check := func() {
			for _, fs := range propertyFilters {
				var f *Filter
				if fs != "" {
					f = MustParseFilter(fs)
				}
				for _, bs := range propertyBases(rng, hosts) {
					base := MustParseDN(bs)
					for scope := ScopeBaseObject; scope <= ScopeWholeSubtree; scope++ {
						got := s.Find(base, scope, f)
						want := s.findScan(base, scope, f)
						if len(got) != len(want) {
							t.Fatalf("seed %d filter %q base %q scope %d: indexed %d entries, scan %d",
								seed, fs, bs, scope, len(got), len(want))
						}
						for i := range got {
							if !got[i].DN.Equal(want[i].DN) {
								t.Fatalf("seed %d filter %q base %q scope %d: entry %d indexed %q scan %q",
									seed, fs, bs, scope, i, got[i].DN, want[i].DN)
							}
						}
					}
				}
			}
		}
		check()
		// Mutate (removals, subtree removals, modifies via re-Put) and
		// re-check so incremental index maintenance is exercised too.
		for i := 0; i < hosts/3; i++ {
			n := rng.Intn(hosts)
			dn := MustParseDN(fmt.Sprintf("hn=h%d, ou=g%d, o=grid", n, rng.Intn(3)))
			switch rng.Intn(3) {
			case 0:
				s.Remove(dn)
			case 1:
				s.RemoveSubtree(dn)
			case 2:
				e := NewEntry(dn).Add("objectclass", "computer").
					Add("hn", fmt.Sprintf("h%d", n)).Add("tag", "blue")
				if err := s.Put(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		check()
	}
}

// TestStoreFindLimitPrefix asserts that AppendCompiled's early-terminating
// size limit returns exactly the first N entries of the unlimited result, and that
// the truncated flag fires iff matches were cut off.
func TestStoreFindLimitPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := buildRandomStore(t, rng, 50)
	for _, fs := range propertyFilters {
		var f *Filter
		if fs != "" {
			f = MustParseFilter(fs)
		}
		for _, bs := range propertyBases(rng, 50) {
			base := MustParseDN(bs)
			for scope := ScopeBaseObject; scope <= ScopeWholeSubtree; scope++ {
				full := s.Find(base, scope, f)
				for _, limit := range []int64{0, 1, 2, 7, int64(len(full)), int64(len(full)) + 1} {
					got, truncated := s.AppendCompiled(nil, base, scope, f.Compile(), limit)
					want := full
					wantTrunc := false
					if limit > 0 && int64(len(full)) > limit {
						want, wantTrunc = full[:limit], true
					}
					if len(got) != len(want) || truncated != wantTrunc {
						t.Fatalf("filter %q base %q scope %d limit %d: got %d/%v want %d/%v",
							fs, bs, scope, limit, len(got), truncated, len(want), wantTrunc)
					}
					for i := range got {
						if !got[i].DN.Equal(want[i].DN) {
							t.Fatalf("filter %q base %q scope %d limit %d: entry %d = %q, want %q",
								fs, bs, scope, limit, i, got[i].DN, want[i].DN)
						}
					}
				}
			}
		}
	}
}

// TestCompiledFilterEquivalence asserts compiled evaluation agrees with the
// interpreted Filter.Matches across every filter kind, including the
// Unicode corner cases the fold helpers handle.
func TestCompiledFilterEquivalence(t *testing.T) {
	entries := []*Entry{
		NewEntry(MustParseDN("hn=a, o=g")).Add("objectclass", "computer").
			Add("hn", "a").Add("load", "7").Add("tag", "Deep Red"),
		NewEntry(MustParseDN("hn=b, o=g")).Add("objectclass", "STORAGE").
			Add("hn", "b").Add("load", "12.5"),
		NewEntry(MustParseDN("hn=k, o=g")).Add("objectclass", "computer").
			Add("unit", "Kelvin").Add("name", "straße"),
		NewEntry(MustParseDN("hn=n, o=g")).Add("load", "not-a-number"),
		NewEntry(MustParseDN("o=g")),
	}
	filters := append([]string{
		"(objectclass=Computer)",
		"(unit=kelvin)",
		"(name=STRASSE)", // ß does not fold to ss: must miss both ways
		"(tag~=deepred)",
		"(tag~=DEEP red)",
		"(load>=10)",
		"(load<=9)",
		"(load>=aardvark)",
		"(tag=deep*)",
		"(tag=*red)",
		"(tag=*EEP*)",
		"(hn=*)",
		"(&(objectclass=computer)(load>=5))",
		"(|(unit=kelvin)(load<=7))",
		"(!(hn=a))",
	}, propertyFilters[1:]...)
	for _, fs := range filters {
		f := MustParseFilter(fs)
		cf := f.Compile()
		for _, e := range entries {
			if got, want := cf.Matches(e), f.Matches(e); got != want {
				t.Errorf("filter %q entry %q: compiled %v, interpreted %v", fs, e.DN, got, want)
			}
		}
	}
	var nilf *Filter
	if !nilf.Compile().Matches(entries[0]) {
		t.Error("nil compiled filter must match everything")
	}
}

// TestStoreConcurrentIndexedAccess hammers every mutation path against
// concurrent indexed reads; run under -race it proves the index
// maintenance holds the locking contract.
func TestStoreConcurrentIndexedAccess(t *testing.T) {
	s := NewStore()

	const workers, iters = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			filter := MustParseFilter("(objectclass=computer)")
			for i := 0; i < iters; i++ {
				n := rng.Intn(40)
				dn := MustParseDN(fmt.Sprintf("hn=h%d, ou=g%d, o=grid", n, n%3))
				switch rng.Intn(5) {
				case 0:
					s.Remove(dn)
				case 1:
					s.RemoveSubtree(MustParseDN(fmt.Sprintf("ou=g%d, o=grid", n%3)))
				case 2:
					got := s.Find(MustParseDN("o=grid"), ScopeWholeSubtree, filter)
					for _, e := range got {
						_ = e.First("hn")
					}
				case 3:
					s.AppendCompiled(nil, MustParseDN("o=grid"), ScopeWholeSubtree, nil, 5)
				default:
					e := NewEntry(dn).Add("objectclass", "computer").
						Add("hn", fmt.Sprintf("h%d", n)).Add("load", fmt.Sprintf("%d", i))
					if err := s.Put(e); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// The index must still be coherent after the storm.
	got := s.Find(MustParseDN("o=grid"), ScopeWholeSubtree, MustParseFilter("(objectclass=computer)"))
	want := s.findScan(MustParseDN("o=grid"), ScopeWholeSubtree, MustParseFilter("(objectclass=computer)"))
	if len(got) != len(want) {
		t.Fatalf("post-storm index mismatch: indexed %d, scan %d", len(got), len(want))
	}
}
