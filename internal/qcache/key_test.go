package qcache

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"mds2/internal/ldap"
)

// keyTuple is what a key must capture of a region, and nothing else: two
// regions share a key exactly when their tuples are equal.
func keyTuple(r Region, attrs []string, sizeLimit int64) string {
	filter := ""
	if r.Filter != nil {
		filter = foldFilter(r.Filter.String())
	}
	// %q quotes every string, so the rendering is itself injective.
	return fmt.Sprintf("%q %q %d %q %q %d", r.Owner, r.Base.Normalize(), r.Scope, filter,
		NormalizeAttrs(attrs), sizeLimit)
}

// foldFilter is strings.ToLower, except that a byte that is not UTF-8 stays
// itself instead of becoming U+FFFD: filters "(cn=\xff)" and "(cn=\xfe)"
// match different entries, so they must not share a cached answer.
func foldFilter(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			b.WriteByte(s[i])
		} else {
			b.WriteString(strings.ToLower(s[i : i+n]))
		}
		i += n
	}
	return b.String()
}

// TestKeyInjective is the key's oracle: over adversarial components — ','
// inside attribute names, 0x1f and the key's own length syntax inside
// values, non-ASCII case pairs — two regions share a key if and only if
// (owner, normalized base, scope, case-folded filter, normalized attribute
// selection, size limit) is equal, and AppendKey renders Key's bytes. The
// filter folds as strings.ToLower does, bytes that are not UTF-8 aside
// (foldFilter).
func TestKeyInjective(t *testing.T) {
	owners := []string{"", "a", "a|1.2.3", "3:abc", "ldap://h:389", "ldap://h:3891", "\x1f"}
	var bases []ldap.DN
	for _, s := range []string{"", "o=grid", "O=Grid", `ou=a\,b, o=grid`, "ou=a, ou=b, o=grid",
		"cn=x\x1fy, o=grid", "cn=Ärger, o=grid", "cn=ärger, o=grid", "cn=2:ab, o=grid"} {
		dn, err := ldap.ParseDN(s)
		if err != nil {
			t.Fatalf("base %q: %v", s, err)
		}
		bases = append(bases, dn)
	}
	filters := []*ldap.Filter{nil}
	for _, s := range []string{"(cn=a)", "(CN=A)", "(cn=a\x1fb)", "(cn=a,b)", "(cn=a)(hn=b)",
		"(&(cn=a)(hn=b))", "(cn=Ärger)", "(cn=ärger)", "(cn=a*)", `(cn=\2a)`, "(cn=*)",
		"(cn=3:abc)", "(cn=\xff)", "(cn=\xfe)"} {
		if f, err := ldap.ParseFilter(s); err == nil {
			filters = append(filters, f)
		}
	}
	selections := [][]string{nil, {"*"}, {"hn,objectclass"}, {"hn", "objectclass"},
		{"objectclass", "HN"}, {"hn"}, {"hn", "hn"}, {"Ärger"}, {"ärger"}, {"a\x1fb"},
		{"a", "\x1fb"}, {"1:a"}, {"1:a", "b"}, {"hn", "*"}}
	scopes := []ldap.Scope{ldap.ScopeBaseObject, ldap.ScopeWholeSubtree}
	limits := []int64{0, 1, 10}

	byKey := map[string]string{}   // key → tuple
	byTuple := map[string]string{} // tuple → key
	n := 0
	for _, owner := range owners {
		for _, base := range bases {
			for _, scope := range scopes {
				for _, f := range filters {
					for _, attrs := range selections {
						for _, limit := range limits {
							r := Region{Owner: owner, Base: base, Scope: scope, Filter: f}
							key, tuple := r.Key(attrs, limit), keyTuple(r, attrs, limit)
							if got := string(r.AppendKey(nil, attrs, limit)); got != key {
								t.Fatalf("AppendKey(%q) = %q, Key = %q", attrs, got, key)
							}
							if got := string(r.AppendKey(nil, NormalizeAttrs(attrs), limit)); got != key {
								t.Fatalf("AppendKey(normalized %q) = %q, Key = %q", attrs, got, key)
							}
							if prev, ok := byKey[key]; ok && prev != tuple {
								t.Fatalf("key %q shared by\n  %s\n  %s", key, prev, tuple)
							}
							if prev, ok := byTuple[tuple]; ok && prev != key {
								t.Fatalf("tuple %s keyed both %q and %q", tuple, prev, key)
							}
							byKey[key], byTuple[tuple] = tuple, key
							n++
						}
					}
				}
			}
		}
	}
	if len(byKey) != len(byTuple) {
		t.Fatalf("%d keys for %d distinct tuples", len(byKey), len(byTuple))
	}
	t.Logf("%d regions, %d distinct keys", n, len(byKey))
}

// TestAppendKeyZeroAlloc: a hit's key is rendered into the caller's stack
// buffer, and the probe makes no string of it — a miss costs nothing, a hit
// its container.
func TestAppendKeyZeroAlloc(t *testing.T) {
	r := region("o=Grid", "(&(ObjectClass=computer)(rack=r3)(cpucount>=2))")
	r.Owner = "ldap://127.0.0.1:2135"
	attrs := NormalizeAttrs([]string{"memsize", "HN", "cpucount"})
	want := r.Key(attrs, 51)
	same := true
	if n := testing.AllocsPerRun(1000, func() {
		var buf [256]byte
		same = same && string(r.AppendKey(buf[:0], attrs, 51)) == want
	}); n != 0 {
		t.Errorf("AppendKey: %.1f allocations, want 0", n)
	}
	if !same {
		t.Fatalf("AppendKey differs from Key %q", want)
	}
	key := []byte(want)

	c := New(Config{TTL: time.Hour})
	probe := func() {
		var buf [256]byte
		c.Lookup(r.AppendKey(buf[:0], attrs, 51))
	}
	if n := testing.AllocsPerRun(1000, probe); n != 0 {
		t.Errorf("missing probe: %.1f allocations, want 0", n)
	}
	c.Put(r.Key(attrs, 51), r, time.Time{}, testEntries(3))
	if n := testing.AllocsPerRun(1000, probe); n != 1 {
		t.Errorf("hitting probe: %.1f allocations, want 1 (the container)", n)
	}
	es, ok := c.Lookup(key)
	if !ok || len(es) != 3 {
		t.Fatalf("Lookup after Put: %d entries, hit %v", len(es), ok)
	}
	if s := c.Stats(); s.Hits != 1002 || s.Misses != 0 || s.StaleSkips != 0 {
		t.Errorf("stats after probes = %+v: want only the hits counted", s)
	}
	if !slices.Equal(es, c.Entries()) {
		t.Error("Lookup handed out other entries than the cached ones")
	}
}
