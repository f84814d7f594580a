package ldap

import (
	"bytes"
	"strings"
	"testing"

	"mds2/internal/ber"
)

// projectionSources are the entry forms a search writer projects: decoded,
// wire-backed with and without the received name kept, grafted (WithDN),
// and a store's snapshot with its recorded wire form, each named dn in its
// canonical spelling.
func projectionSources(t *testing.T, dn string) map[string]*Entry {
	t.Helper()
	decoded := NewEntry(MustParseDN(dn)).
		Add("objectclass", "computer", "top").
		Add("hn", "h1").
		Add("CPUCount", "4").
		Add("memsize", "2048").
		Add("empty").
		Add("rack", "r1", "r2")

	var w wireEntries
	_, kept, ok, err := scanFrame(&w, entryFrame(9, decoded))
	if !ok || err != nil || kept.name == nil {
		t.Fatalf("scan: ok=%v err=%v", ok, err)
	}
	// A name received in a spelling DN.String does not render is not kept.
	var b ber.Builder
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.Int(9)
	b.Begin(ber.ClassApplication, appSearchEntry)
	b.OctetString(strings.ReplaceAll(strings.ToUpper(dn), ", ", ","))
	appendAttrList(&b, decoded.Attrs)
	b.End()
	b.End()
	_, renamed, ok, err := scanFrame(&w, b.Bytes())
	if !ok || err != nil || renamed.name != nil {
		t.Fatalf("scan non-canonical name: ok=%v err=%v", ok, err)
	}

	store := NewStore()
	if err := store.Put(decoded.Clone()); err != nil {
		t.Fatal(err)
	}
	stored := store.Find(decoded.DN, ScopeBaseObject, nil)
	if len(stored) != 1 || stored[0].form.Load() == nil {
		t.Fatalf("store hand-out without a recorded form: %v", stored)
	}
	return map[string]*Entry{
		"decoded":             decoded,
		"wire-backed":         kept,
		"wire-backed renamed": renamed,
		"grafted":             kept.WithDN(MustParseDN(dn + ", vo=v")),
		"stored":              stored[0],
	}
}

var projectionSelections = [][]string{
	nil, {}, {"*"}, {"hn", "*"},
	{"hn"}, {"HN", "hn"}, {"missing"}, {"rack", "missing", "objectclass", "rack"},
	{"hn", "cpucount", "memsize"}, {"memsize", "CPUCOUNT", "Hn"}, {"empty", "hn"},
}

// TestSendProjectedEqualsProject: the connection writer's projection emits
// exactly the bytes of appendEntry(e.Project(attrs)) — names kept or
// rendered, every requested name with values in the requested spelling, in
// request order — for every entry form and selection; a writer that is not
// a connection's gets e.Project(attrs) itself.
func TestSendProjectedEqualsProject(t *testing.T) {
	ctl := []Control{NewEntryChangeControl(ChangeModify)}
	for name, e := range projectionSources(t, `cn=a\,b+uid=X, ou=r\=1, o=grid`) {
		for _, attrs := range projectionSelections {
			want := entryFrame(9, e.Project(attrs))
			var b ber.Builder
			appendEntryMessage(&b, 9, e, attrs, nil)
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s %q: encoder\n% x\nwant\n% x", name, attrs, b.Bytes(), want)
			}
			b.Reset(nil)
			appendEntryMessage(&b, 9, e, attrs, ctl)
			withCtl := (&Message{ID: 9, Op: &SearchResultEntry{Entry: e.Project(attrs)}, Controls: ctl}).Encode()
			if !bytes.Equal(b.Bytes(), withCtl) {
				t.Errorf("%s %q with controls: encoder differs from Message.Encode", name, attrs)
			}

			sw := discardSearchWriter(t, 9)
			if err := SendProjected(sw, e, attrs); err != nil {
				t.Fatal(err)
			}
			if got := sw.conn.w.buf; !bytes.Equal(got, want) {
				t.Errorf("%s %q: writer sent\n% x\nwant\n% x", name, attrs, got, want)
			}

			var cw captureWriter
			if err := SendProjected(&cw, e, attrs, ctl...); err != nil {
				t.Fatal(err)
			}
			if got := entryFrame(9, cw.entries[0]); !bytes.Equal(got, want) || len(cw.controls[0]) != 1 {
				t.Errorf("%s %q: fallback sent another entry", name, attrs)
			}
		}
	}
}

// TestSendProjectedZeroAllocs: projecting a cached entry — decoded or
// wire-backed, once its attributes were looked inside — onto a connection
// makes nothing: no Entry, no attribute slice. (Rendering a name that needs
// escaping allocates, projected or not.)
func TestSendProjectedZeroAllocs(t *testing.T) {
	attrs := []string{"hn", "cpucount", "memsize"}
	for name, e := range projectionSources(t, "cn=a+uid=x, ou=r1, o=grid") {
		sw := discardSearchWriter(t, 9)
		send := func() {
			if err := SendProjected(sw, e, attrs); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ { // decode once, grow the writer's two drain buffers
			send()
		}
		if n := testing.AllocsPerRun(1000, send); n != 0 {
			t.Errorf("%s: %.0f allocations per projected send, want 0", name, n)
		}
	}
}
