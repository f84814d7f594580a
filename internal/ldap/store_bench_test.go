package ldap

import (
	"fmt"
	"testing"
)

// benchStore builds a directory of n hosts spread across 16 groups, the
// shape of a mid-size GRIS/GIIS deployment.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := NewStore()
	if err := s.Put(NewEntry(MustParseDN("o=grid")).Add("objectclass", "organization")); err != nil {
		b.Fatal(err)
	}
	classes := []string{"computer", "storage", "network"}
	entries := make([]*Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, NewEntry(
			MustParseDN(fmt.Sprintf("hn=h%d, ou=g%d, o=grid", i, i%16))).
			Add("objectclass", classes[i%len(classes)]).
			Add("hn", fmt.Sprintf("h%d", i)).
			Add("load", fmt.Sprintf("%d", i%20)))
	}
	if err := s.PutAll(entries); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreFind measures an equality query against directories of
// increasing size, comparing the indexed Find with the pre-change linear
// scan (findScan, the test-only reference oracle in store_index_test.go). The
// indexed path answers from the equality index bucket, so its cost is
// O(matches) while the scan is O(store).
func BenchmarkStoreFind(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		s := benchStore(b, n)
		base := MustParseDN("o=grid")
		filter := MustParseFilter(fmt.Sprintf("(hn=h%d)", n/2))
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Find(base, ScopeWholeSubtree, filter); len(got) != 1 {
					b.Fatalf("got %d entries", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.findScan(base, ScopeWholeSubtree, filter); len(got) != 1 {
					b.Fatalf("got %d entries", len(got))
				}
			}
		})
	}
}

// BenchmarkStoreFindScoped measures a single-level scoped listing, where
// the DN tree lets the walk touch only the base's children instead of
// scope-testing the whole store.
func BenchmarkStoreFindScoped(b *testing.B) {
	for _, n := range []int{10_000} {
		s := benchStore(b, n)
		base := MustParseDN("ou=g3, o=grid")
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Find(base, ScopeSingleLevel, nil); len(got) != n/16 {
					b.Fatalf("got %d entries", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.findScan(base, ScopeSingleLevel, nil); len(got) != n/16 {
					b.Fatalf("got %d entries", len(got))
				}
			}
		})
	}
}

// BenchmarkFilterMatch measures per-entry filter evaluation, compiled vs
// interpreted. Compiled equality/presence/AND must run at 0 allocs/op —
// that is the hot loop GRIS cache revalidation and GIIS index matching sit
// in.
func BenchmarkFilterMatch(b *testing.B) {
	e := NewEntry(MustParseDN("hn=h7, ou=g1, o=grid")).
		Add("objectclass", "computer").
		Add("hn", "h7").
		Add("load", "12").
		Add("tag", "Deep Red")
	cases := []struct{ name, filter string }{
		{"equality", "(objectclass=Computer)"},
		{"presence", "(tag=*)"},
		{"and", "(&(objectclass=computer)(hn=h7))"},
		{"substrings", "(tag=*red)"},
		{"ordering", "(load>=10)"},
	}
	for _, tc := range cases {
		f := MustParseFilter(tc.filter)
		cf := f.Compile()
		if !cf.Matches(e) || !f.Matches(e) {
			b.Fatalf("%s: filter must match the benchmark entry", tc.name)
		}
		b.Run("compiled/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !cf.Matches(e) {
					b.Fatal("no match")
				}
			}
		})
		b.Run("interpreted/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !f.Matches(e) {
					b.Fatal("no match")
				}
			}
		})
	}
}
