package ldap

import (
	"strings"
	"testing"
)

// Normalize is the definition of DN identity; Equal, IsDescendantOf,
// WithinScope and RelativeTo are its allocation-free equivalents. The ref*
// functions below are that definition spelled out with Normalize keys — the
// pre-optimisation implementation — and double as the scope test of the
// findScan oracle, so neither reference depends on the code it checks.

func refEqual(d, o DN) bool { return d.Normalize() == o.Normalize() }

func refDescendant(d, ancestor DN) bool {
	if len(d) <= len(ancestor) {
		return false
	}
	return DN(d[len(d)-len(ancestor):]).Normalize() == ancestor.Normalize()
}

func refWithinScope(d, base DN, scope Scope) bool {
	switch scope {
	case ScopeBaseObject:
		return refEqual(d, base)
	case ScopeSingleLevel:
		return len(d) == len(base)+1 && refDescendant(d, base)
	case ScopeWholeSubtree:
		return refEqual(d, base) || refDescendant(d, base)
	}
	return false
}

// rawDN decodes a structural DN from fuzz input without going through the
// parser, so components reach the comparisons carrying raw separators,
// boundary whitespace, backslashes and invalid UTF-8: RDNs are separated by
// \x00, AVAs by \x01, attribute from value by \x02. An empty RDN chunk is an
// AVA-less RDN, the one shape whose key collides with the root DN's.
func rawDN(s string) DN {
	if s == "" {
		return DN{}
	}
	var dn DN
	for _, rs := range strings.Split(s, "\x00") {
		rdn := RDN{}
		if rs != "" {
			for _, as := range strings.Split(rs, "\x01") {
				attr, value, _ := strings.Cut(as, "\x02")
				rdn = append(rdn, AVA{Attr: attr, Value: value})
			}
		}
		dn = append(dn, rdn)
	}
	return dn
}

func checkDNCompare(t *testing.T, a, b DN) {
	t.Helper()
	if got, want := a.Equal(b), refEqual(a, b); got != want {
		t.Fatalf("Equal(%q, %q) = %v, Normalize says %v (%q vs %q)", a, b, got, want, a.Normalize(), b.Normalize())
	}
	if got, want := a.IsDescendantOf(b), refDescendant(a, b); got != want {
		t.Fatalf("IsDescendantOf(%q, %q) = %v, Normalize says %v", a, b, got, want)
	}
	for scope := ScopeBaseObject; scope <= ScopeWholeSubtree; scope++ {
		if got, want := a.WithinScope(b, scope), refWithinScope(a, b, scope); got != want {
			t.Fatalf("WithinScope(%q, %q, %d) = %v, Normalize says %v", a, b, scope, got, want)
		}
	}
	rel, ok := a.RelativeTo(b)
	if want := refEqual(a, b) || refDescendant(a, b); ok != want {
		t.Fatalf("RelativeTo(%q, %q) ok = %v, Normalize says %v", a, b, ok, want)
	}
	if ok && !refEqual(rel.Under(b), a) {
		t.Fatalf("RelativeTo(%q, %q) = %q does not graft back", a, b, rel)
	}
}

func FuzzDNCompare(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"hn\x02hostX\x00o\x02grid", "HN\x02HOSTX\x00O\x02Grid"},
		{"perf\x02load5\x00hn\x02hostX\x00o\x02grid", "hn\x02hostx\x00o\x02grid"},
		// Escaped separators: a raw ',' inside a value is not an RDN break.
		{"cn\x02a,b\x02c", "cn\x02a\x00b\x02c"},
		{"cn\x02a+b\x02c", "cn\x02a\x01b\x02c"},
		{"cn\x02a=b", "cn=a\x02b"},
		{`cn` + "\x02" + `a\`, `cn` + "\x02" + `a\\`},
		{`cn` + "\x02" + `a\,b`, "cn\x02a,b"},
		// Boundary whitespace is significant in a structural DN.
		{"cn\x02 a ", "cn\x02a"},
		{"cn\x02a\t", "cn\x02A\t"},
		{"cn \x02a", "cn\x02a"},
		{"cn\x02 ", "cn\x02\t"},
		{"cn\x02 a", "cn\x02\\ a"},
		{"cn\x02a ", `cn` + "\x02" + `a\ `},
		{"cn\x02a\r\n", "cn\x02a\n\r"},
		// Specials at a value's boundary, where the escape scan starts and ends.
		{"cn\x02,", "cn\x02+"},
		{"cn\x02=a", "cn\x02a="},
		{`cn` + "\x02" + `\a`, `cn` + "\x02" + `a\`},
		{"cn\x02,a+b=c\\", "CN\x02,A+B=C\\"},
		// Multi-AVA RDNs compare in order.
		{"cn\x02alice\x01uid\x0242\x00o\x02grid", "CN\x02Alice\x01UID\x0242\x00o\x02grid"},
		{"cn\x02alice\x01uid\x0242", "uid\x0242\x01cn\x02alice"},
		// Non-ASCII case pairs: ToLower pairs fold, ToUpper-only pairs do not.
		{"cn\x02ÄÖÜ", "cn\x02äöü"},
		{"cn\x02K", "cn\x02k"}, // Kelvin sign lowers to k
		{"cn\x02İ", "cn\x02i"}, // dotted capital I lowers to i
		{"cn\x02ſ", "cn\x02s"}, // long s only uppercases to S
		{"cn\x02ı", "cn\x02i"}, // dotless i only uppercases to I
		{"cn\x02ς", "cn\x02σ"},
		{"cn\x02Σ", "cn\x02σ"},
		// Invalid UTF-8 lowers to U+FFFD byte by byte.
		{"cn\x02\xff", "cn\x02\xfe"},
		{"cn\x02\xff", "cn\x02�"},
		{"cn\x02a\xc3", "cn\x02A\xc3"},
		{"cn\x02\xc3(", "cn\x02\xe2\x28"},
		// The root DN and a lone AVA-less RDN share the key "".
		{"", "\x00"},
		{"\x00", "\x00\x00"},
		{"a\x02b\x00", "\x00"},
		{"\x02", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, as, bs string) {
		a, b := rawDN(as), rawDN(bs)
		checkDNCompare(t, a, b)
		checkDNCompare(t, b, a)
		// Unrelated random DNs almost never nest; graft to cover the
		// positive side of descent with the same hostile components.
		checkDNCompare(t, a.Under(b), b)
		checkDNCompare(t, a.Under(b), rawDN(strings.ToUpper(bs)))
	})
}

// TestDNCompareZeroAllocs pins the point of the component-wise comparison:
// scope checks run per candidate entry per query and must not allocate.
func TestDNCompareZeroAllocs(t *testing.T) {
	base := MustParseDN("ou=Site 7, o=Grid")
	under := MustParseDN("perf=load5, hn=hostÄ, OU=site 7, O=grid")
	other := MustParseDN("perf=load5, hn=hostÄ, ou=site 8, o=grid")
	sink := 0
	allocs := testing.AllocsPerRun(200, func() {
		for scope := ScopeBaseObject; scope <= ScopeWholeSubtree; scope++ {
			for _, d := range []DN{base, under, other, under[1:]} {
				if d.WithinScope(base, scope) {
					sink++
				}
			}
		}
		if under.IsDescendantOf(base) {
			sink++
		}
		if other.IsDescendantOf(base) || base.Equal(under) {
			sink++
		}
	})
	if allocs != 0 {
		t.Fatalf("DN scope checks allocate %.0f times per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("no comparison held; fixture is wrong")
	}
}
