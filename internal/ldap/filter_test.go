package ldap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
)

func testEntry() *Entry {
	return NewEntry(MustParseDN("hn=hostX, o=grid")).
		Add("objectclass", "top", "computer").
		Add("hn", "hostX").
		Add("system", "mips irix").
		Add("cpucount", "64").
		Add("freecpus", "12").
		Add("load5", "3.2").
		Add("osversion", "6.5.12")
}

func TestParseFilterSimple(t *testing.T) {
	f := MustParseFilter("(objectclass=computer)")
	if f.Kind != FilterEquality || f.Attr != "objectclass" || f.Value != "computer" {
		t.Fatalf("parsed %+v", f)
	}
	if !f.Matches(testEntry()) {
		t.Error("should match")
	}
}

func TestParseFilterUnparenthesized(t *testing.T) {
	f := MustParseFilter("hn=hostX")
	if f.Kind != FilterEquality || !f.Matches(testEntry()) {
		t.Errorf("parsed %+v", f)
	}
}

func TestParseFilterComposite(t *testing.T) {
	f := MustParseFilter("(&(objectclass=computer)(|(system=mips irix)(system=linux))(!(cpucount<=8)))")
	if !f.Matches(testEntry()) {
		t.Error("composite should match")
	}
	f2 := MustParseFilter("(&(objectclass=computer)(system=linux))")
	if f2.Matches(testEntry()) {
		t.Error("should not match linux")
	}
}

func TestFilterPresence(t *testing.T) {
	if !MustParseFilter("(load5=*)").Matches(testEntry()) {
		t.Error("presence should match")
	}
	if MustParseFilter("(gpu=*)").Matches(testEntry()) {
		t.Error("absent attr should not match")
	}
}

func TestFilterOrdering(t *testing.T) {
	e := testEntry()
	cases := []struct {
		f    string
		want bool
	}{
		{"(freecpus>=8)", true},
		{"(freecpus>=12)", true},
		{"(freecpus>=13)", false},
		{"(load5<=3.2)", true},
		{"(load5<=1.0)", false},
		{"(load5>=1)", true},
		// String fallback for non-numeric values.
		{"(system>=mips)", true},
		{"(system<=aaa)", false},
	}
	for _, tc := range cases {
		if got := MustParseFilter(tc.f).Matches(e); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestFilterSubstrings(t *testing.T) {
	e := testEntry()
	cases := []struct {
		f    string
		want bool
	}{
		{"(system=mips*)", true},
		{"(system=*irix)", true},
		{"(system=*ps ir*)", true},
		{"(system=mips*irix)", true},
		{"(system=m*s*x)", true},
		{"(system=linux*)", false},
		{"(system=*bsd)", false},
		{"(osversion=6.5.*)", true},
	}
	for _, tc := range cases {
		if got := MustParseFilter(tc.f).Matches(e); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestFilterSubstringOrderMatters(t *testing.T) {
	e := NewEntry(MustParseDN("x=1")).Add("v", "abc")
	if MustParseFilter("(v=*c*a*)").Matches(e) {
		t.Error("components must match in order")
	}
	if !MustParseFilter("(v=*a*c*)").Matches(e) {
		t.Error("in-order components should match")
	}
}

func TestFilterCaseInsensitivity(t *testing.T) {
	e := testEntry()
	for _, f := range []string{"(OBJECTCLASS=Computer)", "(hn=HOSTX)", "(system=MIPS*)"} {
		if !MustParseFilter(f).Matches(e) {
			t.Errorf("%s should match case-insensitively", f)
		}
	}
}

func TestFilterApprox(t *testing.T) {
	e := testEntry()
	if !MustParseFilter("(system~=mipsirix)").Matches(e) {
		t.Error("approx should ignore whitespace")
	}
	if MustParseFilter("(system~=sunos)").Matches(e) {
		t.Error("approx should not match different value")
	}
}

func TestFilterEscapedValues(t *testing.T) {
	e := NewEntry(MustParseDN("x=1")).Add("desc", "a*b(c)")
	f := MustParseFilter(`(desc=a\*b\(c\))`)
	if f.Kind != FilterEquality {
		t.Fatalf("kind %v (escaped star must not create substrings)", f.Kind)
	}
	if !f.Matches(e) {
		t.Error("escaped literal should match")
	}
	// RFC 4515 hex escapes.
	f2 := MustParseFilter(`(desc=a\2ab\28c\29)`)
	if !f2.Matches(e) {
		t.Error("hex escapes should match")
	}
}

func TestFilterParseErrors(t *testing.T) {
	for _, bad := range []string{"", "(", "()", "(&)", "(|)", "(!)", "(a=b", "(a=b))", "(=v)", "((a=b))"} {
		if _, err := ParseFilter(bad); err == nil {
			t.Errorf("ParseFilter(%q): expected error", bad)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	cases := []string{
		"(objectclass=computer)",
		"(&(a=1)(b=2))",
		"(|(a=1)(!(b=2)))",
		"(load5>=2.5)",
		"(load5<=2.5)",
		"(cn~=karl)",
		"(hn=*)",
		"(system=mips*ir*ix)",
		"(system=*middle*)",
	}
	for _, s := range cases {
		f := MustParseFilter(s)
		if got := f.String(); got != s {
			t.Errorf("String(%s) = %s", s, got)
		}
		// Parse(String(f)) is identical again.
		if got := MustParseFilter(f.String()).String(); got != s {
			t.Errorf("double round trip %s = %s", s, got)
		}
	}
}

func TestFilterBERRoundTrip(t *testing.T) {
	cases := []string{
		"(objectclass=computer)",
		"(&(objectclass=computer)(freecpus>=8))",
		"(|(a=1)(b=2)(!(c=3)))",
		"(hn=*)",
		"(system=mips*ir*ix)",
		"(system=initial*)",
		"(system=*final)",
		"(cn~=karl)",
		"(x<=9)",
	}
	for _, s := range cases {
		f := MustParseFilter(s)
		back, err := FilterFromBER(f.ToBER())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if back.String() != f.String() {
			t.Errorf("BER round trip %s = %s", f, back)
		}
	}
}

func TestFilterAttributes(t *testing.T) {
	f := MustParseFilter("(&(objectclass=computer)(|(load5<=2)(LOAD5>=0))(freecpus>=1))")
	attrs := f.Attributes()
	want := map[string]bool{"objectclass": true, "load5": true, "freecpus": true}
	if len(attrs) != len(want) {
		t.Fatalf("attrs = %v", attrs)
	}
	for _, a := range attrs {
		if !want[a] {
			t.Errorf("unexpected attribute %q", a)
		}
	}
}

// randomFilter generates a random filter tree over a small attribute space.
func randomFilter(r *rand.Rand, depth int) *Filter {
	attrs := []string{"a", "b", "load", "class"}
	vals := []string{"1", "2", "x", "computer", "3.5"}
	if depth <= 0 || r.Intn(3) == 0 {
		attr := attrs[r.Intn(len(attrs))]
		val := vals[r.Intn(len(vals))]
		switch r.Intn(5) {
		case 0:
			return Eq(attr, val)
		case 1:
			return Present(attr)
		case 2:
			return GE(attr, val)
		case 3:
			return LE(attr, val)
		default:
			return &Filter{Kind: FilterSubstrings, Attr: attr, Initial: val}
		}
	}
	switch r.Intn(3) {
	case 0:
		return Not(randomFilter(r, depth-1))
	case 1:
		return And(randomFilter(r, depth-1), randomFilter(r, depth-1))
	default:
		return Or(randomFilter(r, depth-1), randomFilter(r, depth-1))
	}
}

func randomFilterEntry(r *rand.Rand) *Entry {
	e := NewEntry(MustParseDN("x=1"))
	attrs := []string{"a", "b", "load", "class"}
	vals := []string{"1", "2", "x", "computer", "3.5"}
	for _, a := range attrs {
		if r.Intn(2) == 0 {
			e.Add(a, vals[r.Intn(len(vals))])
		}
	}
	return e
}

// TestFilterTripleEquivalence checks that the three filter representations
// (AST, RFC 4515 string, BER) all evaluate identically on random entries.
func TestFilterTripleEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		f := randomFilter(r, 3)
		viaString, err := ParseFilter(f.String())
		if err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		viaBER, err := FilterFromBER(f.ToBER())
		if err != nil {
			t.Fatalf("ber %s: %v", f, err)
		}
		for j := 0; j < 10; j++ {
			e := randomFilterEntry(r)
			m0, m1, m2 := f.Matches(e), viaString.Matches(e), viaBER.Matches(e)
			if m0 != m1 || m0 != m2 {
				t.Fatalf("filter %s on %s: ast=%v str=%v ber=%v", f, e, m0, m1, m2)
			}
		}
	}
}

func TestFilterDeMorganProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a, b := randomFilter(r, 2), randomFilter(r, 2)
		lhs := Not(And(a, b))
		rhs := Or(Not(a), Not(b))
		e := randomFilterEntry(r)
		if lhs.Matches(e) != rhs.Matches(e) {
			t.Fatalf("De Morgan violated for %s vs %s on %s", lhs, rhs, e)
		}
	}
}

// TestCompileAllocationBudget: a plan is one array of nodes plus, unless it
// is a single leaf, one array of subplan pointers, whatever the filter's
// shape. Every GRIS evaluation, name-index lookup and Store.Find compiles
// one; a node and a pointer slice each per operator used to cost 4
// allocations for (&(a=b)(c=d)).
func TestCompileAllocationBudget(t *testing.T) {
	for filter, budget := range map[string]float64{
		"(hn=h1)":                          1,
		"(&(objectclass=computer)(hn=h1))": 2,
		"(&(objectclass=computer)(rack=r3)(!(jobid=17)))":      2,
		"(|(&(a=1)(b>=2))(!(c=x*y*z))(d~=e)(f<=g)(!(!(h=*))))": 2,
	} {
		f := MustParseFilter(filter)
		if n := testing.AllocsPerRun(100, func() { f.Compile() }); n != budget {
			t.Errorf("compiling %s: %.0f allocations, want %.0f", filter, n, budget)
		}
	}
}

func BenchmarkFilterEval(b *testing.B) {
	f := MustParseFilter("(&(objectclass=computer)(system=mips*)(freecpus>=8)(!(load5>=5.0)))")
	e := testEntry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !f.Matches(e) {
			b.Fatal("should match")
		}
	}
}

func BenchmarkFilterParse(b *testing.B) {
	s := "(&(objectclass=computer)(|(system=linux)(system=mips*))(freecpus>=8))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFilter(s); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEntrySelect(t *testing.T) {
	e := testEntry()
	sel := e.Select([]string{"hn", "load5", "missing"})
	if len(sel.Attrs) != 2 {
		t.Fatalf("selected %v", sel.Attrs)
	}
	if sel.First("hn") != "hostX" || sel.First("load5") != "3.2" {
		t.Error("wrong selection")
	}
	if all := e.Select(nil); len(all.Attrs) != len(e.Attrs) {
		t.Error("nil selection should copy all")
	}
	if all := e.Select([]string{"*"}); len(all.Attrs) != len(e.Attrs) {
		t.Error("star selection should copy all")
	}
	// Project selects the same attributes without copying anything.
	for _, requested := range [][]string{nil, {"*"}, {"hn", "load5", "missing"}, {"HN"}} {
		if got, want := e.Project(requested).String(), e.Select(requested).String(); got != want {
			t.Errorf("Project(%v) = %s, Select gives %s", requested, got, want)
		}
	}
	if e.Project(nil) != e || e.Project([]string{"hn", "*"}) != e {
		t.Error("projecting every attribute should return the entry itself")
	}
	// The attribute list is sized once for the whole request, so however many
	// attributes match, a projection is the entry and its list; when none
	// does, it is the entry alone.
	for _, requested := range [][]string{{"hn"}, {"hn", "cpucount", "load5"}, {"missing", "hn", "cpucount", "osversion"}} {
		if allocs := testing.AllocsPerRun(100, func() { e.Project(requested) }); allocs > 2 {
			t.Errorf("Project(%v) allocated %.0f objects, want the entry and its attribute list only", requested, allocs)
		}
	}
	if p := e.Project([]string{"missing"}); p.Attrs != nil {
		t.Errorf("Project with no match has attributes %v, want nil", p.Attrs)
	}
}

func TestEntryMutators(t *testing.T) {
	e := NewEntry(MustParseDN("x=1"))
	e.Add("a", "1").Add("A", "2") // case-insensitive merge
	if len(e.Attrs) != 1 || len(e.Values("a")) != 2 {
		t.Fatalf("attrs %v", e.Attrs)
	}
	e.Set("a", "only")
	if got := e.Values("a"); len(got) != 1 || got[0] != "only" {
		t.Errorf("set: %v", got)
	}
	e.Delete("A")
	if e.Has("a") {
		t.Error("delete failed")
	}
	e.Delete("nonexistent") // no-op
}

func TestEntryNumericAccessors(t *testing.T) {
	e := testEntry()
	if v, ok := e.Int("cpucount"); !ok || v != 64 {
		t.Errorf("Int = %d, %v", v, ok)
	}
	if v, ok := e.Float("load5"); !ok || v != 3.2 {
		t.Errorf("Float = %f, %v", v, ok)
	}
	if _, ok := e.Int("system"); ok {
		t.Error("non-numeric Int should fail")
	}
	if _, ok := e.Float("missing"); ok {
		t.Error("missing Float should fail")
	}
}

func TestEntryCloneIndependence(t *testing.T) {
	e := testEntry()
	c := e.Clone()
	c.Set("hn", "changed")
	c.DN = MustParseDN("hn=other")
	if e.First("hn") != "hostX" || e.DN.String() != "hn=hostX, o=grid" {
		t.Error("clone mutated original")
	}
}

// TestCloneDeepCopiesDN: Clone and Select copy the name down to its AVAs.
// Writing an AVA of the copy's DN leaves the source's name alone — a store
// snapshot still passes its seal (which checksums the name, under mdsdebug)
// and a wire-backed entry still relays the name it arrived under.
func TestCloneDeepCopiesDN(t *testing.T) {
	s := NewStore()
	if err := s.Put(testEntry()); err != nil {
		t.Fatal(err)
	}
	stored := s.Find(MustParseDN("o=grid"), ScopeWholeSubtree, nil)[0]
	var w wireEntries
	_, relayed, ok, err := scanFrame(&w, entryFrame(1, testEntry()))
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	for name, src := range map[string]*Entry{"store snapshot": stored, "wire-backed": relayed} {
		for how, c := range map[string]*Entry{"Clone": src.Clone(), "Select": src.Select([]string{"hn"})} {
			c.DN[0][0].Value = "changed"
			c.DN[1] = append(c.DN[1], AVA{Attr: "x", Value: "y"})
			if got := src.DN.String(); got != "hn=hostX, o=grid" {
				t.Errorf("%s of a %s: writing the copy's name renamed the source to %q", how, name, got)
			}
			src.verifySeal()
		}
	}
	if got := entryFrame(1, relayed); !bytes.Equal(got, entryFrame(1, testEntry())) {
		t.Errorf("the wire-backed source relays\n% x\nwant\n% x", got, entryFrame(1, testEntry()))
	}
}

func TestSortEntriesDeterministic(t *testing.T) {
	entries := []*Entry{
		NewEntry(MustParseDN("b=2, o=g")),
		NewEntry(MustParseDN("o=g")),
		NewEntry(MustParseDN("a=1, o=g")),
	}
	SortEntries(entries)
	want := []string{"o=g", "a=1, o=g", "b=2, o=g"}
	for i, e := range entries {
		if e.DN.String() != want[i] {
			t.Errorf("pos %d: %q, want %q", i, e.DN, want[i])
		}
	}
}

// TestSortEntriesOrderAndSortedInputZeroAlloc: SortEntries orders any input by
// depth, then Normalize key, and leaves input already in that order as it
// is — allocating nothing once its scratch has grown.
func TestSortEntriesOrderAndSortedInputZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var entries []*Entry
	for i := 0; i < 60; i++ {
		dn := fmt.Sprintf("hn=H%d, ou=S%d, o=grid", rng.Intn(40), rng.Intn(4))
		if i%7 == 0 {
			dn = fmt.Sprintf("ou=s%d, o=Grid", rng.Intn(4))
		}
		entries = append(entries, NewEntry(MustParseDN(dn)))
	}
	key := func(e *Entry) string { return fmt.Sprintf("%03d %s", len(e.DN), e.DN.Normalize()) }
	for round := 0; round < 5; round++ {
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		SortEntries(entries)
		if !slices.IsSortedFunc(entries, func(a, b *Entry) int { return strings.Compare(key(a), key(b)) }) {
			t.Fatalf("round %d: not in depth, Normalize order", round)
		}
	}
	sorted := slices.Clone(entries)
	n := testing.AllocsPerRun(100, func() { SortEntries(entries) })
	if !slices.Equal(entries, sorted) {
		t.Error("sorting a sorted slice moved its entries")
	}
	if allocsExact && n != 0 {
		t.Errorf("sorting a sorted slice makes %.0f allocations, want 0", n)
	}
}

func TestEntryStringContainsValues(t *testing.T) {
	s := testEntry().String()
	if !strings.Contains(s, "hn=hostX") || !strings.Contains(s, "dn: ") {
		t.Errorf("diagnostic = %q", s)
	}
}

// TestFoldKeyAgreesWithEqualFold pins the contract FoldKey exports: it is
// constant on every simple case-folding orbit — the relation
// strings.EqualFold, and so equality matching, induces — and on invalid
// UTF-8, which EqualFold reads as U+FFFD. A Bloom term or partition key
// rendered with FoldKey therefore never separates two values a filter
// treats as equal.
func TestFoldKeyAgreesWithEqualFold(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if a, b := string(r), string(unicode.SimpleFold(r)); FoldKey(a) != FoldKey(b) {
			t.Errorf("FoldKey(%q) = %q but FoldKey(%q) = %q", a, FoldKey(a), b, FoldKey(b))
		}
	}
	for _, pair := range [][2]string{{"\xffab", "\xfeAB"}, {"maſſe", "MASSE"}, {"Kelvin", "kelvin"}} {
		if !strings.EqualFold(pair[0], pair[1]) || FoldKey(pair[0]) != FoldKey(pair[1]) {
			t.Errorf("%q / %q: EqualFold %v, FoldKey %q / %q", pair[0], pair[1],
				strings.EqualFold(pair[0], pair[1]), FoldKey(pair[0]), FoldKey(pair[1]))
		}
	}
}
