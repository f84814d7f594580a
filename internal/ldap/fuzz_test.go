package ldap

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Native fuzz targets for the three text parsers a server feeds hostile
// input to: DNs (every request names a base object), filters (discovery
// queries), and URLs (referrals and GRRP service references). Each target
// checks the totality property the ber fuzzers established for the binary
// layer — parse or error, never panic — plus round-trip stability: any
// accepted input must re-render and re-parse to the same normal form.

// trimDNSpaceReference and escapeDNValueReference are the DN text helpers as
// they were before they became byte loops with early-outs, spelled with the
// strings package; FuzzParseDN holds the fast ones to them.
const dnSpace = " \t\r\n"

func trimDNSpaceReference(s string) string {
	s = strings.TrimLeft(s, dnSpace)
	end := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			end = i + 1
			continue
		}
		if !strings.ContainsRune(dnSpace, rune(s[i])) {
			end = i + 1
		}
	}
	return s[:end]
}

func escapeDNValueReference(s string) string {
	lead := len(s) - len(strings.TrimLeft(s, dnSpace))
	trail := max(lead, len(strings.TrimRight(s, dnSpace)))
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(`,+=\;"<>`, s[i]) >= 0 || i == 0 && s[i] == '#' || i < lead || i >= trail {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseDNReference is ParseDN as it was before it sized its result in one
// counting pass: split into components, split each into AVAs, append as it
// goes. Kept as the oracle FuzzParseDN holds the one-pass parser to.
func parseDNReference(s string) (DN, error) {
	split := func(s string, sep byte) []string {
		var parts []string
		start := 0
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '\\':
				i++ // skip escaped char
			case sep:
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
		return append(parts, s[start:])
	}
	s = trimDNSpaceReference(s)
	if s == "" {
		return DN{}, nil
	}
	var dn DN
	for _, comp := range split(s, ',') {
		comp = trimDNSpaceReference(comp)
		if comp == "" {
			return nil, fmt.Errorf("%w: empty RDN in %q", ErrBadDN, s)
		}
		var rdn RDN
		for _, avaStr := range split(comp, '+') {
			avaStr = trimDNSpaceReference(avaStr)
			eq := indexUnescaped(avaStr, '=')
			if eq <= 0 {
				return nil, fmt.Errorf("%w: %q lacks '='", ErrBadDN, avaStr)
			}
			attr := trimDNSpaceReference(avaStr[:eq])
			val := trimDNSpaceReference(avaStr[eq+1:])
			if attr == "" || val == "" {
				return nil, fmt.Errorf("%w: empty attribute or value in %q", ErrBadDN, avaStr)
			}
			rdn = append(rdn, AVA{Attr: unescape(attr), Value: unescape(val)})
		}
		dn = append(dn, rdn)
	}
	return dn, nil
}

func FuzzParseDN(f *testing.F) {
	for _, seed := range []string{
		"",
		"queue=default, hn=hostX",
		"hn=hostX,o=grid",
		"  hn = hostX ,  o = grid ",
		"cn=alice+uid=42, o=grid",
		`cn=with\,comma, o=g`,
		`cn=tr\+plus+uid=1, o=g`,
		"cn=", "=v", "cn==v", ",", "+", `cn=a\`,
		"vo=demo",
		"perf=load5, hn=hostX, o=grid",
		// What the trim and escape early-outs must not get wrong: boundary
		// space that is escaped, escaped away, or only on one side, and every
		// special at a boundary.
		" hn=hostX", "hn=hostX ", "\thn=hostX\r\n", " ", " \\ ",
		`cn=a\ `, `cn=a\  `, `cn=\ a`, `cn= \ a \ `, `cn=a\\ `, `cn=a\\\ `, `cn=a \`,
		`cn=a\ ,o=g`, `cn=a\ + uid=1 , o=g`, `cn\ =a`, `\ cn=a`,
		`cn=\,`, `cn=\+`, `cn=\=`, `cn=\\`, `cn=\,a\+b\=c\\`, `cn=a\,`, `cn=a\\,o=g`,
		`c\,n=v`, `c\=n=v`, `cn=a=b`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := trimDNSpace(s), trimDNSpaceReference(s); got != want {
			t.Fatalf("trimDNSpace(%q) = %q, reference %q", s, got, want)
		}
		if got, want := escapeDNValue(s), escapeDNValueReference(s); got != want {
			t.Fatalf("escapeDNValue(%q) = %q, reference %q", s, got, want)
		}
		dn, err := ParseDN(s)
		want, wantErr := parseDNReference(s)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseDN(%q) error %v, reference %v", s, err, wantErr)
		}
		if !reflect.DeepEqual(dn, want) {
			t.Fatalf("ParseDN(%q) = %#v, reference %#v", s, dn, want)
		}
		if err != nil {
			return
		}
		for i, rdn := range dn {
			if cap(rdn) != len(rdn) {
				t.Fatalf("ParseDN(%q): RDN %d can be appended into its neighbour", s, i)
			}
		}
		// Cut from a slab shared with a neighbour, the name is the same and
		// still cannot be appended into it; the byte rules call a name
		// canonical iff it is its own rendering (those with escapes aside,
		// which they leave to the caller).
		var slab dnSlab
		neighbour, _, _ := parseDN("cn=n, o=g", &slab)
		cut, canonical, err := parseDN(s, &slab)
		if err != nil || !reflect.DeepEqual(cut, dn) || cap(cut) != len(cut) || neighbour.String() != "cn=n, o=g" {
			t.Fatalf("parseDN(%q) from a slab = %#v, %v; ParseDN %#v", s, cut, err, dn)
		}
		if rendered := dn.String() == s; canonical != rendered && (canonical || !strings.Contains(s, `\`)) {
			t.Fatalf("parseDN(%q): canonical %v, but String() is %q", s, canonical, dn.String())
		}
		// The printed form must parse back to the same normal form:
		// String/Normalize are the on-wire names GIIS indices key by.
		back, err := ParseDN(dn.String())
		if err != nil {
			t.Fatalf("ParseDN(%q) ok but re-parse of %q failed: %v", s, dn.String(), err)
		}
		if !dn.Equal(back) {
			t.Fatalf("round trip changed DN: %q -> %q -> %q", s, dn.String(), back.String())
		}
	})
}

func FuzzParseFilter(f *testing.F) {
	for _, seed := range []string{
		"(objectclass=computer)",
		"hn=hostX",
		"(&(objectclass=computer)(|(system=mips irix)(system=linux))(!(cpucount<=8)))",
		"(load5=*)",
		"(cn=ho*st*X)",
		"(cn>=a)", "(cn<=z)",
		`(cn=paren\29)`,
		"(&)", "(|)", "(!)", "(", ")", "(&(a=b)", "(a=b)(c=d)",
		"(objectclass=*)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		flt, err := ParseFilter(s)
		if err != nil {
			return
		}
		rendered := flt.String()
		back, err := ParseFilter(rendered)
		if err != nil {
			t.Fatalf("ParseFilter(%q) ok but re-parse of %q failed: %v", s, rendered, err)
		}
		if got := back.String(); got != rendered {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, rendered, got)
		}
	})
}

func FuzzParseURL(f *testing.F) {
	for _, seed := range []string{
		"ldap://gris.example.org:2135/hn=hostX, o=grid",
		"sim://node7/o=vo",
		"ldap://Host:389/o=g",
		"ldap://127.0.0.1:2136",
		"ldap://h/", "://x", "ldap://", "ldap:///o=g",
		"ldap://[::1]:2135/o=g",
		"ldap://h/hn=a, o=g??base", "ldap://h/cn=a%3Fb??one", "ldap://h/??sub?",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		u, err := ParseURL(s)
		if err != nil {
			return
		}
		back, err := ParseURL(u.String())
		if err != nil {
			t.Fatalf("ParseURL(%q) ok but re-parse of %q failed: %v", s, u.String(), err)
		}
		if back.String() != u.String() {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, u.String(), back.String())
		}
	})
}
