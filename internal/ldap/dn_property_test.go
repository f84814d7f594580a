package ldap

import (
	"math/rand"
	"testing"
)

// randDN builds a random DN over a small alphabet.
func randDN(r *rand.Rand, depth int) DN {
	attrs := []string{"hn", "o", "ou", "perf", "queue"}
	var dn DN
	for i := 0; i < depth; i++ {
		dn = append(dn, RDN{{
			Attr:  attrs[r.Intn(len(attrs))],
			Value: string(rune('a' + r.Intn(26))),
		}})
	}
	return dn
}

// TestUnderRelativeToInverse: for any relative DN r and ancestor a,
// (r.Under(a)).RelativeTo(a) == r — the namespace grafting used by GIIS
// views must be invertible.
func TestUnderRelativeToInverse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		rel := randDN(r, r.Intn(4))
		anc := randDN(r, 1+r.Intn(3))
		grafted := rel.Under(anc)
		back, ok := grafted.RelativeTo(anc)
		if !ok {
			t.Fatalf("RelativeTo failed: rel=%q anc=%q grafted=%q", rel, anc, grafted)
		}
		if back.Normalize() != rel.Normalize() {
			t.Fatalf("inverse violated: rel=%q anc=%q back=%q", rel, anc, back)
		}
	}
}

// TestScopeContainment: base scope ⊂ one-level ∪ base ⊂ subtree, for random
// DNs — the region semantics the GRIS/GIIS scope pruning relies on.
func TestScopeContainment(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 2000; i++ {
		d := randDN(r, r.Intn(5))
		base := randDN(r, r.Intn(4))
		inBase := d.WithinScope(base, ScopeBaseObject)
		inOne := d.WithinScope(base, ScopeSingleLevel)
		inSub := d.WithinScope(base, ScopeWholeSubtree)
		if inBase && !inSub {
			t.Fatalf("base ⊄ subtree: d=%q base=%q", d, base)
		}
		if inOne && !inSub {
			t.Fatalf("one-level ⊄ subtree: d=%q base=%q", d, base)
		}
		if inBase && inOne {
			t.Fatalf("base and one-level overlap: d=%q base=%q", d, base)
		}
		// Subtree membership implies equality or strict descent.
		if inSub && !d.Equal(base) && !d.IsDescendantOf(base) {
			t.Fatalf("subtree without descent: d=%q base=%q", d, base)
		}
	}
}

// TestParentDepthInvariant: Parent always reduces depth by one until root.
func TestParentDepthInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d := randDN(r, 1+r.Intn(6))
		for !d.IsZero() {
			p := d.Parent()
			if p.Depth() != d.Depth()-1 {
				t.Fatalf("parent depth: %q -> %q", d, p)
			}
			if !d.IsDescendantOf(p) {
				t.Fatalf("child not descendant of parent: %q / %q", d, p)
			}
			d = p
		}
	}
}

// TestNormalizeEqualConsistency: Equal agrees with Normalize equality.
func TestNormalizeEqualConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		a := randDN(r, r.Intn(4))
		b := randDN(r, r.Intn(4))
		if a.Equal(b) != (a.Normalize() == b.Normalize()) {
			t.Fatalf("Equal/Normalize disagree: %q vs %q", a, b)
		}
	}
}

// TestStringParseRoundTrip: rendering a structural DN and parsing it back
// names the same entry, for values that carry boundary whitespace and every
// special the renderer must escape (RFC 4514 §2.4, a leading '#' among
// them) — the inputs trimDNSpace's and escapeDNValue's early-outs decide on.
func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	alphabet := []byte(" \t\r\n,+=\\;\"<>#aB7é")
	word := func() string {
		b := make([]byte, 1+r.Intn(5))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		var d DN
		for n := 1 + r.Intn(3); n > 0; n-- {
			rdn := RDN{{Attr: word(), Value: word()}}
			if r.Intn(4) == 0 {
				rdn = append(rdn, AVA{Attr: word(), Value: word()})
			}
			d = append(d, rdn)
		}
		back, err := ParseDN(d.String())
		if err != nil {
			t.Fatalf("ParseDN(%q) of %#v: %v", d.String(), d, err)
		}
		if !back.Equal(d) || back.Normalize() != d.Normalize() {
			t.Fatalf("%#v rendered %q parsed back as %#v", d, d.String(), back)
		}
	}
}
