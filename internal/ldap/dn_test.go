package ldap

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDNBasic(t *testing.T) {
	dn, err := ParseDN("queue=default, hn=hostX")
	if err != nil {
		t.Fatal(err)
	}
	if dn.Depth() != 2 {
		t.Fatalf("depth %d", dn.Depth())
	}
	if dn[0][0].Attr != "queue" || dn[0][0].Value != "default" {
		t.Errorf("leaf = %+v", dn[0])
	}
	if dn[1][0].Attr != "hn" || dn[1][0].Value != "hostX" {
		t.Errorf("parent = %+v", dn[1])
	}
	if got := dn.String(); got != "queue=default, hn=hostX" {
		t.Errorf("String = %q", got)
	}
}

func TestParseDNWhitespaceInsensitive(t *testing.T) {
	a := MustParseDN("hn=hostX,o=grid")
	b := MustParseDN("  hn = hostX ,  o = grid ")
	if !a.Equal(b) {
		t.Errorf("%q != %q", a, b)
	}
}

func TestParseDNMultiValuedRDN(t *testing.T) {
	dn := MustParseDN("cn=alice+uid=42, o=grid")
	if len(dn[0]) != 2 {
		t.Fatalf("leaf AVAs = %d", len(dn[0]))
	}
	if dn[0][1].Attr != "uid" || dn[0][1].Value != "42" {
		t.Errorf("second AVA = %+v", dn[0][1])
	}
	if got := dn.String(); got != "cn=alice+uid=42, o=grid" {
		t.Errorf("String = %q", got)
	}
}

func TestParseDNEscapes(t *testing.T) {
	dn := MustParseDN(`cn=smith\, john, o=grid`)
	if dn.Depth() != 2 {
		t.Fatalf("depth %d: %v", dn.Depth(), dn)
	}
	if dn[0][0].Value != "smith, john" {
		t.Errorf("value = %q", dn[0][0].Value)
	}
	// Round trip through String preserves the escape.
	back := MustParseDN(dn.String())
	if !back.Equal(dn) {
		t.Errorf("round trip %q != %q", back, dn)
	}
}

// TestEscapeRFC4514Specials: a value carrying a character RFC 4514 §2.4
// has escaped — ';', '"', '<', '>', a leading '#' — renders escaped and
// parses back to itself (a query-cache key in a directory's monitor carries
// ';' in its RDN).
func TestEscapeRFC4514Specials(t *testing.T) {
	for _, c := range []struct{ value, rendered string }{
		{"a;b", `cn=a\;b`},
		{`say "hi"`, `cn=say \"hi\"`},
		{"<x>", `cn=\<x\>`},
		{"#1", `cn=\#1`},
		{"a#1", `cn=a#1`},
		{"22:ldap://h:1;0;", `cn=22:ldap://h:1\;0\;`},
	} {
		dn := DN{{{Attr: "cn", Value: c.value}}}
		if got := dn.String(); got != c.rendered {
			t.Errorf("value %q renders %q, want %q", c.value, got, c.rendered)
		}
		back, err := ParseDN(c.rendered)
		if err != nil || !back.Equal(dn) || back[0][0].Value != c.value {
			t.Errorf("%q parses back as %#v (%v), want value %q", c.rendered, back, err, c.value)
		}
	}
}

func TestParseDNErrors(t *testing.T) {
	for _, bad := range []string{"noequals", "=v", "a=", ",", "a=b,,c=d", "a=b, =x"} {
		if _, err := ParseDN(bad); err == nil {
			t.Errorf("ParseDN(%q): expected error", bad)
		}
	}
}

func TestParseDNEmptyIsRoot(t *testing.T) {
	dn, err := ParseDN("")
	if err != nil {
		t.Fatal(err)
	}
	if !dn.IsZero() {
		t.Error("empty string should be root DN")
	}
}

func TestDNEqualCaseInsensitive(t *testing.T) {
	a := MustParseDN("HN=HostX, O=Grid")
	b := MustParseDN("hn=hostx, o=grid")
	if !a.Equal(b) {
		t.Error("case-insensitive comparison failed")
	}
	if a.Normalize() != b.Normalize() {
		t.Error("normalize keys differ")
	}
}

func TestDNParentChild(t *testing.T) {
	host := MustParseDN("hn=hostX, o=grid")
	queue := host.ChildAVA("queue", "default")
	if queue.String() != "queue=default, hn=hostX, o=grid" {
		t.Errorf("child = %q", queue)
	}
	if !queue.Parent().Equal(host) {
		t.Errorf("parent = %q", queue.Parent())
	}
	if !queue.IsDescendantOf(host) {
		t.Error("queue should descend from host")
	}
	if host.IsDescendantOf(queue) {
		t.Error("host should not descend from queue")
	}
	if !queue.IsDescendantOf(DN{}) {
		t.Error("everything descends from root")
	}
	if queue.IsDescendantOf(queue) {
		t.Error("descendant is strict")
	}
}

func TestDNScopes(t *testing.T) {
	base := MustParseDN("o=grid")
	host := MustParseDN("hn=hostX, o=grid")
	queue := MustParseDN("queue=default, hn=hostX, o=grid")
	other := MustParseDN("o=other")

	cases := []struct {
		dn    DN
		scope Scope
		want  bool
	}{
		{base, ScopeBaseObject, true},
		{host, ScopeBaseObject, false},
		{host, ScopeSingleLevel, true},
		{queue, ScopeSingleLevel, false},
		{base, ScopeSingleLevel, false},
		{base, ScopeWholeSubtree, true},
		{host, ScopeWholeSubtree, true},
		{queue, ScopeWholeSubtree, true},
		{other, ScopeWholeSubtree, false},
	}
	for _, tc := range cases {
		if got := tc.dn.WithinScope(base, tc.scope); got != tc.want {
			t.Errorf("%q within %v of %q = %v, want %v", tc.dn, tc.scope, base, got, tc.want)
		}
	}
}

func TestDNRelativeToAndUnder(t *testing.T) {
	center := MustParseDN("o=center1")
	host := MustParseDN("hn=R1, o=center1")
	rel, ok := host.RelativeTo(center)
	if !ok || rel.String() != "hn=R1" {
		t.Fatalf("RelativeTo = %q, %v", rel, ok)
	}
	vo := MustParseDN("o=center1, vo=alliance")
	grafted := rel.Under(vo)
	if grafted.String() != "hn=R1, o=center1, vo=alliance" {
		t.Errorf("Under = %q", grafted)
	}
	if _, ok := host.RelativeTo(MustParseDN("o=center2")); ok {
		t.Error("RelativeTo unrelated ancestor should fail")
	}
	if rel, ok := host.RelativeTo(host); !ok || !rel.IsZero() {
		t.Error("RelativeTo self should be empty relative DN")
	}
}

func TestDNLeaf(t *testing.T) {
	if MustParseDN("hn=x, o=g").Leaf()[0].Value != "x" {
		t.Error("leaf mismatch")
	}
	if (DN{}).Leaf() != nil {
		t.Error("root leaf should be nil")
	}
	if !(DN{}).Parent().IsZero() {
		t.Error("root parent should be root")
	}
}

func TestDNRoundTripQuick(t *testing.T) {
	// For DNs built from arbitrary attr/value strings, String→Parse→Equal
	// must hold (escaping property).
	f := func(attr, value string) bool {
		attr = sanitizeAttr(attr)
		value = strings.TrimSpace(value)
		if attr == "" || value == "" || strings.ContainsAny(value, "\x00\n\r") {
			return true // skip out-of-grammar inputs
		}
		// Values with leading/trailing backslash interplay are exercised in
		// dedicated tests; quick check covers the broad space.
		dn := DN{RDN{{Attr: attr, Value: value}}, RDN{{Attr: "o", Value: "grid"}}}
		back, err := ParseDN(dn.String())
		if err != nil {
			return false
		}
		return back.Equal(dn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitizeAttr(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			b.WriteRune(r)
		}
	}
	return b.String()
}
