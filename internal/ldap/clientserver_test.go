package ldap

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// storeHandler serves a Store's entries behind the protocol engine, for the
// tests that need a server holding data. A search is AppendCompiled into a
// stack array, then SendProjected, as a GRIS serves a round. A persistent
// search takes its context's Done and sends each entry handed to push until
// its op ends. Add puts an entry that is not there yet and Delete removes
// one; everything else is BaseHandler's.
type storeHandler struct {
	BaseHandler
	*Store
	push chan *Entry
}

func newStoreHandler() *storeHandler {
	return &storeHandler{Store: NewStore(), push: make(chan *Entry)}
}

func (h *storeHandler) Search(req *Request, op *SearchRequest, w SearchWriter) Result {
	if _, ok := FindControl(req.Controls, OIDPersistentSearch); ok {
		done := req.Ctx.Done()
		for {
			select {
			case <-done:
				return Result{Code: ResultSuccess, Message: "persistent search abandoned"}
			case e := <-h.push:
				if err := SendProjected(w, e, op.Attributes); err != nil {
					return Result{Code: ResultUnavailable, Message: err.Error()}
				}
			}
		}
	}
	base, err := op.Base()
	if err != nil {
		return Result{Code: ResultProtocolError, Message: err.Error()}
	}
	var found [8]*Entry
	entries, truncated := h.AppendCompiled(found[:0], base, op.Scope, op.Plan(), op.SizeLimit)
	for _, e := range entries {
		if err := SendProjected(w, e, op.Attributes); err != nil {
			return Result{Code: ResultUnavailable, Message: err.Error()}
		}
	}
	if truncated {
		return Result{Code: ResultSizeLimitExceeded}
	}
	return Result{Code: ResultSuccess}
}

func (h *storeHandler) Add(_ *Request, op *AddRequest) Result {
	if _, exists := h.Get(op.Entry.DN); exists {
		return Result{Code: ResultEntryAlreadyExists, MatchedDN: op.Entry.DN.String()}
	}
	if err := h.Put(op.Entry); err != nil {
		return Result{Code: ResultUnwillingToPerform, Message: err.Error()}
	}
	return Result{Code: ResultSuccess}
}

func (h *storeHandler) Delete(_ *Request, op *DelRequest) Result {
	dn, err := ParseDN(op.DN)
	if err != nil {
		return Result{Code: ResultProtocolError, Message: err.Error()}
	}
	if !h.Remove(dn) {
		return Result{Code: ResultNoSuchObject, MatchedDN: op.DN}
	}
	return Result{Code: ResultSuccess}
}

// startTestServer serves a storeHandler over loopback TCP and returns a
// connected client plus the handler.
func startTestServer(tb testing.TB) (*Client, *storeHandler) {
	tb.Helper()
	store := newStoreHandler()
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	tb.Cleanup(func() { srv.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, store
}

func TestClientServerEndToEnd(t *testing.T) {
	c, _ := startTestServer(t)
	if err := c.Bind("", ""); err != nil {
		t.Fatal(err)
	}
	e := NewEntry(MustParseDN("hn=hostX, o=grid")).
		Add("objectclass", "computer").
		Add("hn", "hostX").
		Add("load5", "3.2")
	if err := c.Add(e); err != nil {
		t.Fatal(err)
	}
	// Duplicate add reports entryAlreadyExists.
	if err := c.Add(e); !IsCode(err, ResultEntryAlreadyExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	res, err := c.Search(&SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=computer)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].First("load5") != "3.2" {
		t.Fatalf("search = %v", res.Entries)
	}
	// Attribute selection travels the wire.
	res, err = c.Search(&SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(hn=hostX)"), Attributes: []string{"hn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || len(res.Entries[0].Attributes()) != 1 {
		t.Fatalf("selected search = %v", res.Entries[0])
	}
	// The handler takes no modify: BaseHandler's refusal crosses the wire.
	if err := c.Modify("hn=hostX, o=grid", []ModifyChange{
		{Op: ModReplace, Attr: Attribute{Name: "load5", Values: []string{"0.5"}}},
	}); !IsCode(err, ResultUnwillingToPerform) {
		t.Fatalf("modify: %v", err)
	}
	if err := c.Delete("hn=hostX, o=grid"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("hn=hostX, o=grid"); !IsCode(err, ResultNoSuchObject) {
		t.Fatalf("second delete: %v", err)
	}
}

// TestSearchOutOfRange: RFC 4511 §4.5.1 makes scope ENUMERATED {0, 1, 2} and
// the size and time limits INTEGER (0..maxInt). The server answers a search
// outside that with protocolError whatever its handler; a Store used to
// answer scope 5 or -1 with an empty success.
func TestSearchOutOfRange(t *testing.T) {
	c, store := startTestServer(t)
	for _, e := range []*Entry{
		NewEntry(MustParseDN("o=grid")).Add("objectclass", "organization"),
		NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer"),
	} {
		if err := store.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	for scope := Scope(-1); scope <= 5; scope++ {
		res, err := c.Search(&SearchRequest{BaseDN: "o=grid", Scope: scope})
		if valid := scope >= ScopeBaseObject && scope <= ScopeWholeSubtree; valid {
			if err != nil || len(res.Entries) != 1+int(scope)/2 {
				t.Errorf("scope %v: %v, %v", scope, res, err)
			}
		} else if !IsCode(err, ResultProtocolError) {
			t.Errorf("scope %v: %v, want protocolError", scope, err)
		}
	}
	for _, req := range []*SearchRequest{
		{BaseDN: "o=grid", SizeLimit: -1},
		{BaseDN: "o=grid", TimeLimit: -1},
	} {
		if _, err := c.Search(req); !IsCode(err, ResultProtocolError) {
			t.Errorf("size limit %d, time limit %d: %v, want protocolError", req.SizeLimit, req.TimeLimit, err)
		}
	}
}

func TestClientConcurrentSearches(t *testing.T) {
	c, store := startTestServer(t)
	for i := 0; i < 50; i++ {
		e := NewEntry(MustParseDN(fmt.Sprintf("hn=host%02d, o=grid", i))).
			Add("objectclass", "computer").
			Add("hn", fmt.Sprintf("host%02d", i)).
			Add("idx", fmt.Sprintf("%d", i))
		if err := store.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := c.Search(&SearchRequest{
				BaseDN: "o=grid", Scope: ScopeWholeSubtree,
				Filter: MustParseFilter(fmt.Sprintf("(idx=%d)", g)),
			})
			if err != nil {
				errs <- err
				return
			}
			if len(res.Entries) != 1 {
				errs <- fmt.Errorf("goroutine %d: %d entries", g, len(res.Entries))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientPersistentSearchOverWire(t *testing.T) {
	c, store := startTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	got := make(chan *Entry, 8)
	go func() {
		c.SearchFunc(ctx, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree},
			[]Control{NewPersistentSearchControl(PersistentSearch{
				ChangeTypes: ChangeAll, ChangesOnly: true, ReturnECs: true})},
			func(e *Entry, cs []Control) error {
				got <- e
				return nil
			})
	}()
	e := NewEntry(MustParseDN("hn=fresh, o=grid")).Add("objectclass", "computer").Add("hn", "fresh")
	select {
	case store.push <- e: // taken once the subscription is established
	case <-time.After(3 * time.Second):
		t.Fatal("the persistent search never started")
	}
	select {
	case entry := <-got:
		if !entry.DN.Equal(e.DN) {
			t.Errorf("notified %q", entry.DN)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no push notification over the wire")
	}
	cancel() // abandons the search server-side
	time.Sleep(20 * time.Millisecond)
	// Connection must remain usable after the abandon.
	if _, err := c.Search(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}); err != nil {
		t.Fatalf("post-abandon search: %v", err)
	}
}

func TestClientServerSurvivesClientCrash(t *testing.T) {
	store := newStoreHandler()
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// Abruptly close a raw connection mid-session.
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0x30, 0x50}) // claim a 0x50-byte message, then vanish
	raw.Close()

	// Server keeps serving others.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Bind("", ""); err != nil {
		t.Fatal(err)
	}
}

func TestClientServerRejectsGarbage(t *testing.T) {
	store := newStoreHandler()
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A valid BER element that is not an LDAP message: server should close.
	raw.Write([]byte{0x04, 0x02, 'h', 'i'})
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Error("expected connection close on garbage")
	}
}

func TestClientTimeout(t *testing.T) {
	// A handler that never answers searches.
	h := &stallHandler{stall: make(chan struct{})}
	defer close(h.stall)
	srv := NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err = c.Search(&SearchRequest{BaseDN: "o=g"})
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took too long")
	}
}

type stallHandler struct {
	BaseHandler
	stall chan struct{}
}

func (h *stallHandler) Search(req *Request, _ *SearchRequest, _ SearchWriter) Result {
	select {
	case <-h.stall:
	case <-req.Ctx.Done():
	}
	return Result{Code: ResultSuccess}
}

func TestServerConnStateIdentity(t *testing.T) {
	st := &ConnState{}
	if st.BoundDN() != "" || st.Identity() != nil {
		t.Error("fresh state should be anonymous")
	}
	st.SetIdentity("cn=alice", 42)
	if st.BoundDN() != "cn=alice" || st.Identity() != 42 {
		t.Error("identity not recorded")
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	srv := NewServer(newStoreHandler())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func BenchmarkWireSearchRoundTrip(b *testing.B) {
	store := newStoreHandler()
	for i := 0; i < 100; i++ {
		store.Put(NewEntry(MustParseDN(fmt.Sprintf("hn=h%d, o=g", i))).
			Add("objectclass", "computer").Add("hn", fmt.Sprintf("h%d", i)))
	}
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := &SearchRequest{BaseDN: "o=g", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(hn=h42)")}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Search(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientSearch200 is the user side of a discovery: one connection,
// 200 six-attribute entries back per search. names-only reads what a broker
// that only ranks or counts hosts reads; read-all decodes every attribute.
func BenchmarkClientSearch200(b *testing.B) {
	c, store := startTestServer(b)
	for i := 0; i < 200; i++ {
		err := store.Put(NewEntry(MustParseDN(fmt.Sprintf("hn=h%d, ou=s%d, o=grid", i, i%8))).
			Add("objectclass", "computer").Add("hn", fmt.Sprintf("h%d", i)).
			Add("system", "linux redhat").Add("cpucount", "4").Add("memsize", "2048").Add("load5", "1.7"))
		if err != nil {
			b.Fatal(err)
		}
	}
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=computer)")}
	for _, readAll := range []bool{false, true} {
		name := "names-only"
		if readAll {
			name = "read-all"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			read := 0
			for i := 0; i < b.N; i++ {
				res, err := c.Search(req)
				if err != nil || len(res.Entries) != 200 {
					b.Fatalf("search: %v, %v", res, err)
				}
				for _, e := range res.Entries {
					read += len(e.DN)
					if readAll {
						read += len(e.Attributes())
					}
				}
			}
			if read == 0 {
				b.Fatal("nothing read")
			}
		})
	}
}

// BenchmarkDirectSearch measures the same query without the wire, isolating
// protocol overhead (DESIGN.md ablation: wire vs direct dispatch).
func BenchmarkDirectSearch(b *testing.B) {
	store := NewStore()
	for i := 0; i < 100; i++ {
		store.Put(NewEntry(MustParseDN(fmt.Sprintf("hn=h%d, o=g", i))).
			Add("objectclass", "computer").Add("hn", fmt.Sprintf("h%d", i)))
	}
	base := MustParseDN("o=g")
	f := MustParseFilter("(hn=h42)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := store.Find(base, ScopeWholeSubtree, f); len(got) != 1 {
			b.Fatal("missing")
		}
	}
}
