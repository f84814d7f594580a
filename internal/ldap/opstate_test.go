package ldap

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"mds2/internal/ber"
)

// opPeer speaks raw LDAP to one served connection: the test writes messages
// with the IDs it picks, and a reader hands over every final reply.
type opPeer struct {
	t     *testing.T
	conn  net.Conn
	dones chan *Message
}

func newOpPeer(t *testing.T, srv *Server) *opPeer {
	t.Helper()
	a, b := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(served)
	}()
	p := &opPeer{t: t, conn: b, dones: make(chan *Message, 16)}
	go func() {
		r := bufio.NewReader(b)
		for {
			frame, err := ber.ReadFrame(r, nil)
			if err != nil {
				return
			}
			msg, err := ScanMessage(frame)
			if err != nil {
				t.Error(err)
				return
			}
			if _, entry := msg.Op.(*SearchResultEntry); !entry {
				p.dones <- msg
			}
		}
	}()
	t.Cleanup(func() {
		b.Close()
		<-served
	})
	return p
}

func (p *opPeer) write(id int64, op Op, controls ...Control) {
	p.t.Helper()
	if _, err := p.conn.Write((&Message{ID: id, Op: op, Controls: controls}).Encode()); err != nil {
		p.t.Fatal(err)
	}
}

// done waits for the final reply to id.
func (p *opPeer) done(id int64) Result {
	p.t.Helper()
	select {
	case msg := <-p.dones:
		if msg.ID != id {
			p.t.Fatalf("final reply to op %d, want op %d", msg.ID, id)
		}
		d, ok := msg.Op.(*SearchResultDone)
		if !ok {
			p.t.Fatalf("op %d ended with %T", id, msg.Op)
		}
		return d.Result
	case <-time.After(5 * time.Second):
		p.t.Fatalf("op %d never ended", id)
	}
	return Result{}
}

// freeOps is the number of retired op states conn holds for reuse.
func freeOps(srv *Server) int {
	sc := onlyConn(srv)
	sc.opMu.Lock()
	defer sc.opMu.Unlock()
	return len(sc.free)
}

// gatedSearches records each search's Request by base, and holds a search
// whose base has a gate until the gate closes; a search whose context was
// cancelled by then ends with that error.
type gatedSearches struct {
	BaseHandler
	started chan string
	mu      sync.Mutex
	reqs    map[string]*Request
	gates   map[string]chan struct{}
}

func (h *gatedSearches) Search(req *Request, op *SearchRequest, _ SearchWriter) Result {
	h.mu.Lock()
	h.reqs[op.BaseDN] = req
	gate := h.gates[op.BaseDN]
	h.mu.Unlock()
	h.started <- op.BaseDN
	if gate != nil {
		<-gate
	}
	if err := req.Ctx.Err(); err != nil {
		return Result{Code: ResultOther, Message: err.Error()}
	}
	return Result{Code: ResultSuccess}
}

// TestLateAbandonNeverCancelsRecycledOp is the server-side twin of
// TestLateReplyNeverReachesRecycledOp: an Abandon naming an op that has
// ended arrives while the next op on the connection runs with the ended
// op's recycled state, and the next op completes uncancelled.
func TestLateAbandonNeverCancelsRecycledOp(t *testing.T) {
	gate := make(chan struct{})
	h := &gatedSearches{started: make(chan string, 4), reqs: map[string]*Request{},
		gates: map[string]chan struct{}{"ou=next": gate}}
	srv := NewServer(h)
	p := newOpPeer(t, srv)
	search := func(base string) *SearchRequest {
		return &SearchRequest{BaseDN: base, Scope: ScopeWholeSubtree}
	}
	started := func(want string) {
		t.Helper()
		select {
		case got := <-h.started:
			if got != want {
				t.Fatalf("server started %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the search of %q never reached the server", want)
		}
	}

	p.write(1, search("ou=ended"))
	started("ou=ended")
	if res := p.done(1); res.Code != ResultSuccess {
		t.Fatalf("op 1: %+v", res)
	}
	eventually(t, "op 1 retires", func() bool { return freeOps(srv) == 1 })
	p.write(2, search("ou=next"))
	started("ou=next")
	h.mu.Lock()
	reused := h.reqs["ou=next"] == h.reqs["ou=ended"]
	h.mu.Unlock()
	if !reused {
		t.Fatal("op 2 did not reuse op 1's state")
	}
	// The read loop takes one message at a time: once op 4 has started, the
	// Abandon of op 1 sent before it (message 3) has been acted on.
	p.write(3, &AbandonRequest{IDToAbandon: 1})
	p.write(4, search("ou=after"))
	started("ou=after")
	if res := p.done(4); res.Code != ResultSuccess {
		t.Fatalf("op 4: %+v", res)
	}
	close(gate)
	if res := p.done(2); res.Code != ResultSuccess {
		t.Fatalf("op 2, running with op 1's recycled state, ended %+v: the late Abandon of op 1 reached it", res)
	}
}

// failingWriter refuses every send, as a writer on a dead connection does.
type failingWriter struct{}

func (failingWriter) SendEntry(*Entry, ...Control) error { return net.ErrClosed }
func (failingWriter) SendReferral(...string) error       { return net.ErrClosed }

// sendFailingStore is a storeHandler whose searches write to a
// failingWriter. It hands on the Done channel of each search's context.
type sendFailingStore struct {
	*storeHandler
	done chan (<-chan struct{})
}

func (s sendFailingStore) Search(req *Request, op *SearchRequest, _ SearchWriter) Result {
	res := s.storeHandler.Search(req, op, failingWriter{})
	s.done <- req.Ctx.Done()
	return res
}

// TestPersistentSearchContextEndsWithOp: a persistent search that fails its
// first send returns after taking its context's Done. That context still
// closes when the op ends, so a subscription waiting on it exits, and a
// context whose Done was taken is never reused for a later op.
func TestPersistentSearchContextEndsWithOp(t *testing.T) {
	h := sendFailingStore{newStoreHandler(), make(chan (<-chan struct{}), 1)}
	srv := NewServer(h)
	p := newOpPeer(t, srv)
	p.write(1, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree},
		NewPersistentSearchControl(PersistentSearch{ChangeTypes: ChangeAll}))
	h.push <- NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer")
	if res := p.done(1); res.Code != ResultUnavailable {
		t.Fatalf("persistent search with a failing writer ended %+v", res)
	}
	done := <-h.done
	eventually(t, "the subscription ends with its op", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	if n := freeOps(srv); n != 0 {
		t.Errorf("the persistent search's state was kept for reuse (%d free), though its Done was taken", n)
	}
}

// oneEntryHandler answers every search with the one entry it holds.
type oneEntryHandler struct {
	BaseHandler
	e *Entry
}

func (h oneEntryHandler) Search(_ *Request, _ *SearchRequest, w SearchWriter) Result {
	if err := w.SendEntry(h.e); err != nil {
		return Result{Code: ResultUnavailable}
	}
	return Result{Code: ResultSuccess}
}

// rawPeer is a client as cheap as one can be: it writes a pre-encoded
// request and reads the reply's frames into one reused buffer, keeping
// nothing, so what a search allocates is the server's.
type rawPeer struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
	req  []byte
}

func newRawPeer(t *testing.T, srv *Server, req *SearchRequest) *rawPeer {
	t.Helper()
	a, b := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(served)
	}()
	t.Cleanup(func() {
		b.Close()
		<-served
	})
	return &rawPeer{conn: b, r: bufio.NewReaderSize(b, 4<<10), req: (&Message{ID: 1, Op: req}).Encode()}
}

// search runs the request once and returns the entries before its done.
func (p *rawPeer) search() (entries int, err error) {
	if _, err := p.conn.Write(p.req); err != nil {
		return 0, err
	}
	for {
		if p.buf, err = ber.ReadFrame(p.r, p.buf); err != nil {
			return entries, err
		}
		_, body, _, _ := ber.Element(p.buf)
		_, _, op, _ := ber.Element(body) // past the message ID
		if len(op) == 0 {
			return entries, errUnexpected
		}
		switch op[0] {
		case 0x64: // [APPLICATION 4] SearchResultEntry
			entries++
		case 0x65: // [APPLICATION 5] SearchResultDone
			return entries, nil
		default:
			return entries, errUnexpected
		}
	}
}

// TestServedSearchAllocationBudget: the server allocates once for a
// warmed-up search answered with one entry over a connection: the scanned
// request, which holds its frame's copy, its filter, its base DN and its
// plan. The op's Request, context, writer and done reply are a retired op's;
// while each op made its own they took 5 allocations more, 8 in all; while
// the frame copy and the filter's nodes were allocations of their own, 3.
func TestServedSearchAllocationBudget(t *testing.T) {
	if !allocsExact {
		t.Skip("allocation counts are not the program's under -race or mdsdebug")
	}
	e := NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer").Add("hn", "h1")
	p := newRawPeer(t, NewServer(oneEntryHandler{e: e}), &SearchRequest{BaseDN: "hn=h1, o=grid",
		Scope: ScopeBaseObject, Filter: MustParseFilter("(objectclass=computer)")})
	for i := 0; i < 100; i++ {
		if n, err := p.search(); err != nil || n != 1 {
			t.Fatalf("warm-up search %d: %d entries, %v", i, n, err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if got, err := p.search(); err != nil || got != 1 {
			t.Fatalf("search: %d entries, %v", got, err)
		}
	})
	t.Logf("server allocations per warmed-up one-entry search: %.1f", n)
	if n > 1 {
		t.Errorf("a served one-entry search makes %.1f allocations in the server, budget 1", n)
	}
}
