package ldap

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

func TestStorePutGetRemove(t *testing.T) {
	s := NewStore()
	e := NewEntry(MustParseDN("hn=a, o=g")).Add("objectclass", "computer").Add("hn", "a")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(MustParseDN("HN=A, O=G"))
	if !ok || got.First("hn") != "a" {
		t.Fatalf("get = %v, %v", got, ok)
	}
	// Mutating the returned copy must not affect the store.
	got.Set("hn", "mutated")
	again, _ := s.Get(e.DN)
	if again.First("hn") != "a" {
		t.Error("store entry aliased to caller copy")
	}
	if !s.Remove(e.DN) || s.Len() != 0 {
		t.Error("remove failed")
	}
	if s.Remove(e.DN) {
		t.Error("double remove should report false")
	}
}

func TestStoreRemoveSubtree(t *testing.T) {
	s := NewStore()
	for _, dn := range []string{"o=g", "hn=a, o=g", "q=x, hn=a, o=g", "hn=b, o=g"} {
		if err := s.Put(NewEntry(MustParseDN(dn)).Add("objectclass", "top")); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.RemoveSubtree(MustParseDN("hn=a, o=g")); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if s.Len() != 2 {
		t.Fatalf("remaining %d", s.Len())
	}
}

func TestStoreSchemaEnforcement(t *testing.T) {
	s := NewStore()
	s.Schema = NewGridSchema()
	bad := NewEntry(MustParseDN("hn=x")).Add("objectclass", "computer") // missing hn
	if err := s.Put(bad); err == nil {
		t.Error("schema violation should be rejected")
	}
}

type captureWriter struct {
	entries   []*Entry
	controls  [][]Control
	referrals [][]string
}

func (w *captureWriter) SendEntry(e *Entry, cs ...Control) error {
	w.entries = append(w.entries, e)
	w.controls = append(w.controls, cs)
	return nil
}

func (w *captureWriter) SendReferral(urls ...string) error {
	w.referrals = append(w.referrals, urls)
	return nil
}

func TestStoreHandlerSearch(t *testing.T) {
	s := newStoreHandler()
	for i, dn := range []string{"hn=a, o=g", "hn=b, o=g", "hn=c, o=other"} {
		e := NewEntry(MustParseDN(dn)).Add("objectclass", "computer").Add("hn", string(rune('a'+i)))
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	req := &Request{Ctx: context.Background(), State: &ConnState{}}
	w := &captureWriter{}
	res := s.Search(req, &SearchRequest{BaseDN: "o=g", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=computer)")}, w)
	if res.Code != ResultSuccess || len(w.entries) != 2 {
		t.Fatalf("search: %+v, %d entries", res, len(w.entries))
	}
	// Size limit.
	w = &captureWriter{}
	res = s.Search(req, &SearchRequest{BaseDN: "o=g", Scope: ScopeWholeSubtree, SizeLimit: 1}, w)
	if res.Code != ResultSizeLimitExceeded || len(w.entries) != 1 {
		t.Fatalf("size limit: %+v, %d entries", res, len(w.entries))
	}
	// Bad base DN.
	res = s.Search(req, &SearchRequest{BaseDN: "=bad"}, &captureWriter{})
	if res.Code != ResultProtocolError {
		t.Fatalf("bad base: %+v", res)
	}
}

func TestStoreBindPolicy(t *testing.T) {
	s := newStoreHandler()
	if r := s.Bind(nil, &BindRequest{Version: 3}); r.Code != ResultSuccess {
		t.Errorf("anonymous bind: %+v", r)
	}
	if r := s.Bind(nil, &BindRequest{Version: 3, SASLMech: "GSI"}); r.Code != ResultAuthMethodNotSupported {
		t.Errorf("sasl bind: %+v", r)
	}
	if r := s.Extended(nil, &ExtendedRequest{OID: "1.2.3"}); r.Code != ResultProtocolError {
		t.Errorf("extended: %+v", r)
	}
}

// TestStoreSnapshotWireForm: a stored decoded entry — adopted, put or
// replaced — goes out as the wire form its store recorded when it published
// the entry, byte for byte what the reference tree encoder makes of it,
// escaped names and multi-valued attributes included, while Attributes
// still hands back the entry's own attributes. Stores that adopt one
// producer's entries at once, and serve them as they go, agree on one form
// (the race detector checks the publication).
func TestStoreSnapshotWireForm(t *testing.T) {
	fresh := func() []*Entry {
		return []*Entry{
			NewEntry(MustParseDN(`cn=a\,b+uid=x\=y, ou=\ lead, o=grid`)).
				Add("objectclass", "person", "top").Add("cn", "a,b", " padded ", "ünï"),
			NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer").Add("load5", "0.5", "0.7", "0.9"),
			NewEntry(MustParseDN("hn=bare, o=grid")),
			sevenAttrEntry(4),
		}
	}
	sent := func(e *Entry) []byte { return (&Message{ID: 7, Op: &SearchResultEntry{Entry: e}}).AppendTo(nil) }
	check := func(how string, e *Entry) {
		t.Helper()
		if e.form.Load() == nil {
			t.Fatalf("%s: %s has no wire form", how, e.DN)
		}
		if got, want := sent(e), encodeTree(&Message{ID: 7, Op: &SearchResultEntry{Entry: e}}); !bytes.Equal(got, want) {
			t.Fatalf("%s: %s sent as\n% x\nwant\n% x", how, e.DN, got, want)
		}
		if attrs := e.Attributes(); len(attrs) > 0 && &attrs[0] != &e.Attrs[0] {
			t.Fatalf("%s: Attributes() of %s is not the entry's own", how, e.DN)
		}
	}

	adopted := NewStore()
	if err := adopted.Adopt(fresh()); err != nil {
		t.Fatal(err)
	}
	for _, e := range adopted.All() {
		check("adopted", e)
	}
	put := NewStore()
	for _, e := range fresh() {
		if err := put.Put(e); err != nil {
			t.Fatal(err)
		}
		if e.form.Load() != nil {
			t.Fatalf("Put recorded a form on the caller's entry %s", e.DN)
		}
	}
	for _, e := range put.All() {
		check("put", e)
	}
	changed, _ := put.Get(MustParseDN("hn=h1, o=grid"))
	if err := put.Put(changed.Set("load5", "2.5", "2,6")); err != nil {
		t.Fatal(err)
	}
	replaced := put.Find(MustParseDN("hn=h1, o=grid"), ScopeBaseObject, nil)[0]
	if replaced.First("load5") != "2.5" {
		t.Fatalf("replacement not applied: %s", replaced)
	}
	check("replaced", replaced)

	// What goes out is the recorded form itself, copied, not a re-encoding.
	marked := NewEntry(MustParseDN("hn=m, o=grid")).Add("objectclass", "computer")
	form := []byte{0x04, 0x01, 'x', 0x30, 0x00}
	marked.form.Store(&form)
	if got := sent(marked); !bytes.Contains(got, form) {
		t.Fatalf("an entry with a recorded form was sent as % x, not as its form % x", got, form)
	}

	// One producer's round, adopted by two stores at once while each serves
	// what it holds.
	shared := fresh()
	want := make([][]byte, len(shared))
	for i, e := range shared {
		want[i] = encodeTree(&Message{ID: 7, Op: &SearchResultEntry{Entry: e}})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewStore()
			if err := s.Adopt(shared); err != nil {
				t.Error(err)
				return
			}
			for i, e := range shared {
				if got := sent(s.Find(e.DN, ScopeBaseObject, nil)[0]); !bytes.Equal(got, want[i]) {
					t.Errorf("store %d sent %s as\n% x\nwant\n% x", g, e.DN, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
