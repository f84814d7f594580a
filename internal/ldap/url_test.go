package ldap

import "testing"

func TestParseURL(t *testing.T) {
	u, err := ParseURL("ldap://gris.example.org:2135/hn=hostX, o=grid")
	if err != nil {
		t.Fatal(err)
	}
	if u.Scheme != "ldap" || u.Host != "gris.example.org" || u.Port != "2135" {
		t.Errorf("parsed %+v", u)
	}
	if u.DN.String() != "hn=hostX, o=grid" {
		t.Errorf("dn = %q", u.DN)
	}
	if u.Address() != "gris.example.org:2135" {
		t.Errorf("address = %q", u.Address())
	}
}

func TestParseURLNoDN(t *testing.T) {
	for _, s := range []string{"ldap://host:389", "ldap://host:389/"} {
		u, err := ParseURL(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !u.DN.IsZero() {
			t.Errorf("%s: dn = %q", s, u.DN)
		}
	}
}

func TestParseURLNoPort(t *testing.T) {
	u, err := ParseURL("sim://node7/o=vo")
	if err != nil {
		t.Fatal(err)
	}
	if u.Host != "node7" || u.Port != "" || u.Scheme != "sim" {
		t.Errorf("parsed %+v", u)
	}
	if u.Address() != "node7" {
		t.Errorf("address = %q", u.Address())
	}
}

func TestURLStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"ldap://h:1/o=g",
		"ldap://h:1",
		"sim://node/hn=a, o=b",
	} {
		u := MustParseURL(s)
		back := MustParseURL(u.String())
		if back.String() != u.String() {
			t.Errorf("round trip %q -> %q", s, back)
		}
	}
}

// TestURLScope: the RFC 4516 scope part parses in any case, renders in
// lower case after an empty attributes part, and survives a DN that needs
// percent escapes; a URL without one leaves the caller's scope in force.
func TestURLScope(t *testing.T) {
	for s, want := range map[string]Scope{
		"ldap://h:1/o=g??base": ScopeBaseObject,
		"ldap://h:1/o=g??ONE":  ScopeSingleLevel,
		"ldap://h:1/??sub":     ScopeWholeSubtree,
	} {
		u := MustParseURL(s)
		if got := u.Scope(-1); got != want {
			t.Errorf("%s: scope %d, want %d", s, got, want)
		}
		if back := MustParseURL(u.String()); back.String() != u.String() || back.Scope(-1) != want {
			t.Errorf("%s: round trip %q -> %q", s, u, back)
		}
	}
	if got := MustParseURL("ldap://h:1/o=g?").Scope(ScopeSingleLevel); got != ScopeSingleLevel {
		t.Errorf("no scope part: got %d, want the default", got)
	}
	u := MustParseURL("ldap://h:1").WithDN(MustParseDN(`cn=a?b%c, o=g`)).WithScope(ScopeBaseObject)
	if got, want := u.String(), "ldap://h:1/cn=a%3Fb%25c, o=g??base"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if back := MustParseURL(u.String()); !back.DN.Equal(u.DN) || back.Scope(-1) != ScopeBaseObject {
		t.Errorf("re-parse of %q: %q", u, back)
	}
}

func TestURLErrors(t *testing.T) {
	for _, bad := range []string{"", "nohost", "://x", "ldap:///o=g", "ldap://h/==bad",
		"ldap://h/o=g?cn", "ldap://h/o=g??subtree", "ldap://h/o=g???(cn=a)", "ldap://h/o=g%zz"} {
		if _, err := ParseURL(bad); err == nil {
			t.Errorf("ParseURL(%q): expected error", bad)
		}
	}
}

func TestURLHelpers(t *testing.T) {
	u := MustParseURL("ldap://Host:389/o=g")
	v := u.WithDN(MustParseDN("hn=a, o=g"))
	if v.DN.String() != "hn=a, o=g" || u.DN.String() != "o=g" {
		t.Error("WithDN should not mutate the receiver")
	}
	if u.ServiceKey() != v.ServiceKey() {
		t.Error("ServiceKey should ignore DN")
	}
	if u.ServiceKey() != "ldap://host:389" {
		t.Errorf("ServiceKey = %q", u.ServiceKey())
	}
}
