package ldap

import "testing"

// figure3Entries reconstructs the exact example namespace of Figure 3 of the
// paper: hostX described by a computer object with service, performance, and
// storage children.
func figure3Entries() []*Entry {
	host := NewEntry(MustParseDN("hn=hostX")).
		Add("objectclass", "computer").
		Add("hn", "hostX").
		Add("system", "mips irix")
	queue := NewEntry(MustParseDN("queue=default, hn=hostX")).
		Add("objectclass", "service", "queue").
		Add("queue", "default").
		Add("url", "gram://hostX/default").
		Add("dispatchtype", "immediate")
	perf := NewEntry(MustParseDN("perf=load5, hn=hostX")).
		Add("objectclass", "perf", "loadaverage").
		Add("perf", "load5").
		Add("period", "10").
		Add("load5", "3.2")
	store := NewEntry(MustParseDN("store=scratch, hn=hostX")).
		Add("objectclass", "storage", "filesystem").
		Add("store", "scratch").
		Add("free", "33515 MB").
		Add("path", "/disks/scratch1")
	return []*Entry{host, queue, perf, store}
}

func TestFigure3SchemaValidates(t *testing.T) {
	schema := NewGridSchema()
	for _, e := range figure3Entries() {
		if err := schema.Validate(e); err != nil {
			t.Errorf("entry %q: %v", e.DN, err)
		}
	}
}

func TestFigure3Hierarchy(t *testing.T) {
	entries := figure3Entries()
	host := entries[0]
	for _, child := range entries[1:] {
		if !child.DN.IsDescendantOf(host.DN) {
			t.Errorf("%q should sit under %q", child.DN, host.DN)
		}
		if !child.DN.Parent().Equal(host.DN) {
			t.Errorf("%q parent = %q", child.DN, child.DN.Parent())
		}
	}
}

func TestFigure3StoreAndSearch(t *testing.T) {
	s := NewStore()
	s.Schema = NewGridSchema()
	for _, e := range figure3Entries() {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	// Subtree search from the host finds all four objects.
	all := s.Find(MustParseDN("hn=hostX"), ScopeWholeSubtree, nil)
	if len(all) != 4 {
		t.Fatalf("subtree = %d entries", len(all))
	}
	// The paper's example discovery: find the load average object.
	load := s.Find(MustParseDN("hn=hostX"), ScopeWholeSubtree, MustParseFilter("(objectclass=loadaverage)"))
	if len(load) != 1 || load[0].First("load5") != "3.2" {
		t.Fatalf("loadaverage search = %v", load)
	}
	// One-level search finds the three children but not the host itself.
	kids := s.Find(MustParseDN("hn=hostX"), ScopeSingleLevel, nil)
	if len(kids) != 3 {
		t.Fatalf("one-level = %d entries", len(kids))
	}
	// Base search returns exactly the host object.
	base := s.Find(MustParseDN("hn=hostX"), ScopeBaseObject, nil)
	if len(base) != 1 || base[0].First("system") != "mips irix" {
		t.Fatalf("base search = %v", base)
	}
}

func TestFigure3WireRoundTrip(t *testing.T) {
	// Every Figure 3 entry survives the SearchResultEntry wire encoding.
	for _, e := range figure3Entries() {
		m := &Message{ID: 1, Op: &SearchResultEntry{Entry: e}}
		back, err := ScanMessage(m.Encode())
		if err != nil {
			t.Fatalf("%q: %v", e.DN, err)
		}
		got := back.Op.(*SearchResultEntry).Entry
		if !got.DN.Equal(e.DN) {
			t.Errorf("dn: %q != %q", got.DN, e.DN)
		}
		for _, a := range e.Attrs {
			for _, v := range a.Values {
				if !got.HasValue(a.Name, v) {
					t.Errorf("%q lost %s=%s", e.DN, a.Name, v)
				}
			}
		}
	}
}

func TestSchemaMandatoryEnforced(t *testing.T) {
	schema := NewGridSchema()
	// computer without hn violates MUST.
	bad := NewEntry(MustParseDN("hn=y")).Add("objectclass", "computer")
	if err := schema.Validate(bad); err == nil {
		t.Error("missing mandatory attribute should fail")
	}
	// queue inherits url MUST from service.
	q := NewEntry(MustParseDN("queue=q, hn=y")).Add("objectclass", "queue").Add("queue", "q")
	if err := schema.Validate(q); err == nil {
		t.Error("queue without inherited url should fail")
	}
}

func TestSchemaClosedWorld(t *testing.T) {
	schema := NewGridSchema()
	e := NewEntry(MustParseDN("hn=z")).
		Add("objectclass", "computer").
		Add("hn", "z").
		Add("bogusattr", "1")
	if err := schema.Validate(e); err == nil {
		t.Error("attribute outside may/must should fail for known classes")
	}
}

func TestSchemaLenientUnknownClass(t *testing.T) {
	schema := NewGridSchema()
	e := NewEntry(MustParseDN("x=1")).
		Add("objectclass", "experimentalthing").
		Add("whatever", "v")
	if err := schema.Validate(e); err != nil {
		t.Errorf("lenient schema should pass unknown classes: %v", err)
	}
	schema.Strict = true
	if err := schema.Validate(e); err == nil {
		t.Error("strict schema should reject unknown classes")
	}
}

func TestSchemaNoObjectClass(t *testing.T) {
	if err := NewGridSchema().Validate(NewEntry(MustParseDN("x=1")).Add("a", "b")); err == nil {
		t.Error("entries must carry objectclass")
	}
}

func TestSchemaInheritanceCycle(t *testing.T) {
	s := NewSchema()
	s.Define(ObjectClass{Name: "a", Super: "b"})
	s.Define(ObjectClass{Name: "b", Super: "a"})
	e := NewEntry(MustParseDN("x=1")).Add("objectclass", "a")
	if err := s.Validate(e); err == nil {
		t.Error("inheritance cycle should be detected")
	}
}

func TestSchemaClassListing(t *testing.T) {
	s := NewGridSchema()
	classes := s.Classes()
	if len(classes) < 10 {
		t.Fatalf("classes = %v", classes)
	}
	if _, ok := s.Lookup("LOADAVERAGE"); !ok {
		t.Error("lookup should be case-insensitive")
	}
}
