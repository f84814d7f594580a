//go:build mdsdebug

package ldap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mds2/internal/ber"
)

func sealTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	e := NewEntry(MustParseDN("hn=hostA, o=grid")).
		Add("objectclass", "MdsHost").
		Add("hn", "hostA")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	return s
}

func findOne(t *testing.T, s *Store) *Entry {
	t.Helper()
	es := s.Find(MustParseDN("o=grid"), ScopeWholeSubtree, nil)
	if len(es) != 1 {
		t.Fatalf("got %d entries", len(es))
	}
	return es[0]
}

func TestSealPanicsOnMutatingMethod(t *testing.T) {
	s := sealTestStore(t)
	e := findOne(t, s)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Add on a sealed snapshot did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "sealed") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.Add("seen", "1")
}

func TestSealCatchesRawSnapshotMutation(t *testing.T) {
	s := sealTestStore(t)
	e := findOne(t, s)
	// Bypass the mutating methods entirely: scribble on the shared
	// attribute slice. The next hand-out re-verifies the checksum.
	e.Attrs[1].Values[0] = "evil"
	defer func() {
		if recover() == nil {
			t.Fatal("redelivery of a scribbled snapshot did not panic")
		}
	}()
	findOne(t, s)
}

func TestSealClonedEntriesStayMutable(t *testing.T) {
	s := sealTestStore(t)
	e := findOne(t, s)
	c := e.Clone()
	c.Add("seen", "1")
	c.Set("hn", "hostB")
	c.Delete("seen")
	c.SortAttrs()
	sel := e.Select([]string{"hn"})
	sel.Add("seen", "1")
	// And the caller's own pre-Put entry is never sealed: Put clones.
	mine := NewEntry(MustParseDN("hn=hostC, o=grid")).Add("objectclass", "MdsHost")
	if err := s.Put(mine); err != nil {
		t.Fatal(err)
	}
	mine.Add("hn", "hostC")
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestSealCoversWireEntries: a wire-backed entry is sealed at birth, its
// checksum taken over the raw frame — so a mutating method panics at the
// call, and an entry whose read chunk was recycled under it (poisonChunk
// scribbles over every chunk the client rewinds) fails loudly at the next
// decode, re-emit or cache fill instead of relaying another message's bytes.
func TestSealCoversWireEntries(t *testing.T) {
	scan := func(chunk []byte) *Entry {
		var w wireEntries
		_, e, ok, err := scanFrame(&w, chunk)
		if !ok || err != nil {
			t.Fatal(ok, err)
		}
		return e
	}
	e := scan(entryFrame(1, sevenAttrEntry(1)))
	mustPanic(t, "Add on a wire-backed entry", func() { e.Add("seen", "1") })
	if e.First("hn") != "h1" {
		t.Fatalf("live entry: %s", e)
	}
	SealSnapshots([]*Entry{e}) // re-verifies: still intact

	chunk := entryFrame(2, sevenAttrEntry(2))
	stale, grafted := scan(chunk), scan(chunk).WithDN(MustParseDN("hn=h2, o=view"))
	poisonChunk(chunk) // what the read loop does before reusing a chunk
	mustPanic(t, "decoding an entry whose chunk was recycled", func() { stale.Attributes() })
	mustPanic(t, "re-emitting an entry whose chunk was recycled", func() { entryFrame(2, grafted) })
	mustPanic(t, "caching an entry whose chunk was recycled", func() { SealSnapshots([]*Entry{stale}) })
}

// TestReadFramePoisonsRecycledRequests: a server reads every request of a
// connection into one frame buffer, and nothing that leaves its read loop
// aliases it — a search lives in a copy of its frame, as do its base DN and
// plan, and any other request copies what it keeps. A string planted on purpose to alias the buffer
// reads poison after the next ReadFrame, while the message built from the
// same frame reads on intact.
func TestReadFramePoisonsRecycledRequests(t *testing.T) {
	short := (&Message{ID: 9, Op: &DelRequest{DN: "o=g"}}).Encode()
	for name, long := range map[string][]byte{
		"scanned search": (&Message{ID: 1, Op: &SearchRequest{BaseDN: "ou=s0, o=grid", Scope: ScopeWholeSubtree,
			Filter:     MustParseFilter("(&(objectclass=computer)(hn=h1))"),
			Attributes: []string{"hn", "load5"}}}).Encode(),
		"copied delete": (&Message{ID: 2, Op: &DelRequest{DN: "hn=h1, ou=s0, o=grid"},
			Controls: []Control{{OID: "1.2.3", Value: []byte("kept")}}}).Encode(),
	} {
		want := treeDecode(long)
		r := bytes.NewReader(append(append([]byte(nil), long...), short...))
		frame, err := ber.ReadFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		// What the server's read loop does with a frame.
		msg, err := scanMessage(frame, true)
		if err != nil {
			t.Fatal(err)
		}
		planted := ber.View(frame[len(short):]) // past where the next frame lands
		if _, err := ber.ReadFrame(r, frame); err != nil {
			t.Fatal(err)
		}
		if poison := strings.Repeat("\xdb", len(planted)); planted != poison {
			t.Errorf("%s: a string aliasing the recycled frame reads %q, want poison", name, planted)
		}
		if !reflect.DeepEqual(unscanned(msg), want) {
			t.Errorf("%s: message changed with the frame it was read from:\n %#v\nwant\n %#v", name, msg, want)
		}
		checkRequestPlan(t, msg) // a search's base DN and plan do not alias the frame either
	}
}

// TestSealCoversKeptNames: a relayed entry's kept name bytes alias its read
// chunk just as its attribute list does, and the seal covers them too —
// poisoning only the part of the chunk the name sits in makes the re-emit
// fail its seal instead of sending another message's bytes as the name.
func TestSealCoversKeptNames(t *testing.T) {
	chunk := entryFrame(4, sevenAttrEntry(4))
	var w wireEntries
	_, e, ok, err := scanFrame(&w, chunk)
	if !ok || err != nil || e.name == nil {
		t.Fatalf("scan: ok=%v err=%v, name kept %v", ok, err, e != nil && e.name != nil)
	}
	entryFrame(4, e) // intact: re-emits
	at := bytes.Index(chunk, []byte(e.DN.String()))
	if at < 0 || !bytes.Equal(chunk[at:at+len(e.name)], e.name) {
		t.Fatalf("kept name %q not found in its chunk", e.name)
	}
	poisonChunk(chunk[at : at+len(e.name)])
	mustPanic(t, "re-emitting an entry whose name outlived its chunk", func() { entryFrame(4, e) })
}

// leakingSearches hands each search's Request and writer out of the handler,
// as a goroutine left running past the handler would keep them.
type leakingSearches struct {
	BaseHandler
	leaked chan leakedOp
}

type leakedOp struct {
	req *Request
	w   SearchWriter
}

func (h leakingSearches) Search(req *Request, _ *SearchRequest, w SearchWriter) Result {
	h.leaked <- leakedOp{req, w}
	return Result{Code: ResultSuccess}
}

// TestRetiredOpStatePoisoned: once a served search has ended, the writer it
// was lent panics on every send, and its Request is poisoned: its Ctx panics
// and its trace identity names no trace.
func TestRetiredOpStatePoisoned(t *testing.T) {
	h := leakingSearches{leaked: make(chan leakedOp, 1)}
	srv := NewServer(h)
	p := newOpPeer(t, srv)
	p.write(1, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree})
	op := <-h.leaked
	if res := p.done(1); res.Code != ResultSuccess {
		t.Fatalf("search: %+v", res)
	}
	eventually(t, "the op retires", func() bool { return freeOps(srv) == 1 })
	e := NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer")
	mustPanic(t, "SendEntry on a retired writer", func() { op.w.SendEntry(e) })
	mustPanic(t, "SendProjected on a retired writer", func() { SendProjected(op.w, e, []string{"hn"}) })
	mustPanic(t, "SendReferral on a retired writer", func() { op.w.SendReferral("ldap://h1/") })
	mustPanic(t, "Done on a retired Request's Ctx", func() { op.req.Ctx.Done() })
	mustPanic(t, "Err on a retired Request's Ctx", func() { op.req.Ctx.Err() })
	if op.req.State != nil || op.req.TraceDepth >= 0 || len(op.req.Controls) != 1 || op.req.Controls[0].OID != "retired" {
		t.Errorf("retired Request not poisoned: %+v", *op.req)
	}
}
