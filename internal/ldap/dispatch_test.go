package ldap

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/obs"
)

// parkHandler answers "(park=*)" searches only when they are cancelled,
// every other search at once with one entry, and can hold the quick ones at
// a barrier so a test decides how many are in flight together.
type parkHandler struct {
	BaseHandler
	parked    chan struct{} // a parking search has started
	cancelled chan struct{} // a parking search saw its context end
	calls     atomic.Int64

	barrier sync.WaitGroup // quick searches wait here when hold is set
	hold    atomic.Bool
	during  atomic.Pointer[func()] // runs inside every quick search when set
}

func newParkHandler() *parkHandler {
	return &parkHandler{parked: make(chan struct{}, 64), cancelled: make(chan struct{}, 64)}
}

func (h *parkHandler) Search(req *Request, op *SearchRequest, w SearchWriter) Result {
	h.calls.Add(1)
	if op.Filter != nil && op.Filter.Kind == FilterPresent && op.Filter.Attr == "park" {
		h.parked <- struct{}{}
		<-req.Ctx.Done()
		h.cancelled <- struct{}{}
		return Result{Code: ResultSuccess}
	}
	if h.hold.Load() {
		h.barrier.Done()
		h.barrier.Wait()
	}
	if f := h.during.Load(); f != nil {
		(*f)()
	}
	if err := w.SendEntry(NewEntry(MustParseDN("hn=h1, o=grid")).Add("hn", "h1")); err != nil {
		return Result{Code: ResultUnavailable}
	}
	return Result{Code: ResultSuccess}
}

// serveOnPipe serves h over one in-memory connection and returns a client
// for it; cleanup closes both.
func serveOnPipe(t *testing.T, srv *Server) *Client {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(done)
	}()
	c := NewClient(b)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return c
}

// dispatchWorkers counts the goroutines running a connection's dispatch
// loop, from their stacks.
func dispatchWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("ldap.(*serverConn).worker("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func quickSearch(c *Client) error {
	res, err := c.Search(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=*)")})
	if err == nil && len(res.Entries) != 1 {
		return errUnexpected
	}
	return err
}

var errUnexpected = errors.New("search answered with other than one entry")

// startParked starts a search that parks in the handler until abandoned,
// and returns its cancel, which abandons it.
func startParked(t *testing.T, c *Client, h *parkHandler) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	go c.SearchFunc(ctx, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(park=*)")}, nil,
		func(*Entry, []Control) error { return nil })
	select {
	case <-h.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("parking search never reached the handler")
	}
	return cancel
}

// TestDispatchBlockedOpDoesNotDelaySearch: an operation blocked on its
// context holds its worker, and the next search on the connection gets
// another one; abandoning the blocked operation cancels it.
func TestDispatchBlockedOpDoesNotDelaySearch(t *testing.T) {
	h := newParkHandler()
	c := serveOnPipe(t, NewServer(h))
	abandon := startParked(t, c, h)
	done := make(chan error, 1)
	go func() { done <- quickSearch(c) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("search beside a parked one: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search waited behind an operation parked on its context")
	}
	abandon()
	select {
	case <-h.cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned operation was never cancelled")
	}
	// The abandoned operation's worker is free again: searches keep working.
	if err := quickSearch(c); err != nil {
		t.Fatalf("search after abandon: %v", err)
	}
}

// TestDispatchBurstLeavesOneIdleWorker: a 64-deep pipelined burst gets a
// worker per operation in flight, and once it has drained at most one
// worker is left waiting on the connection.
func TestDispatchBurstLeavesOneIdleWorker(t *testing.T) {
	const depth = 64
	base := dispatchWorkers()
	h := newParkHandler()
	srv := NewServer(h)
	c := serveOnPipe(t, srv)
	h.hold.Store(true)
	h.barrier.Add(depth)
	errs := make(chan error, depth)
	for i := 0; i < depth; i++ {
		go func() { errs <- quickSearch(c) }()
	}
	for i := 0; i < depth; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("burst search: %v", err)
		}
	}
	// Every search waited at the barrier for all the others, so the burst
	// had all of them in flight at once.
	eventually(t, "the burst's extra workers exit", func() bool { return dispatchWorkers()-base <= 1 })
	if n := dispatchWorkers() - base; n != 1 {
		t.Errorf("%d dispatch workers left after the burst, want the one idle worker", n)
	}
	h.hold.Store(false)
	// A search that arrives while the worker is parked runs on it: inside
	// the handler there is still only the one worker. The wait for the park
	// comes first because the worker writes a response before it parks, so
	// the client can send its next search before there is anything to reuse.
	sc := onlyConn(srv)
	var workers atomic.Int64
	count := func() { workers.Store(int64(dispatchWorkers() - base)) }
	h.during.Store(&count)
	for i := 0; i < 8; i++ {
		eventually(t, "the idle worker parks", sc.parked.Load)
		if err := quickSearch(c); err != nil {
			t.Fatal(err)
		}
		if n := workers.Load(); n != 1 {
			t.Fatalf("sequential search %d ran with %d workers, want 1", i, n)
		}
	}
}

// onlyConn returns the server's one connection.
func onlyConn(srv *Server) *serverConn {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for sc := range srv.conns {
		return sc
	}
	return nil
}

// TestDispatchWorkersExitOnClose: closing the connection — with a worker
// idle and another parked in a handler — leaves no goroutine behind.
func TestDispatchWorkersExitOnClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	h := newParkHandler()
	srv := NewServer(h)
	a, b := net.Pipe()
	served := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(served)
	}()
	c := NewClient(b)
	for i := 0; i < 4; i++ {
		if err := quickSearch(c); err != nil {
			t.Fatal(err)
		}
	}
	startParked(t, c, h)
	c.Close()
	<-served
	srv.Close()
	eventually(t, "every goroutine of the connection exits", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestDispatchQueuedOpDroppedOnAbandon: an operation waiting in the
// admission queue holds a worker while it waits, and abandoning it drops it:
// when the slot frees, the queue passes over it, it never reaches the
// handler, and the next search gets the slot.
func TestDispatchQueuedOpDroppedOnAbandon(t *testing.T) {
	reg := obs.NewRegistry()
	h := newParkHandler()
	srv := NewServer(h)
	srv.Obs = reg
	srv.Overload = OverloadConfig{MaxWorkers: 1, MaxQueue: 1}
	c := serveOnPipe(t, srv)

	release := startParked(t, c, h) // takes the one slot
	ctx, abandon := context.WithCancel(context.Background())
	queuedDone := make(chan error, 1)
	go func() {
		queuedDone <- c.SearchFunc(ctx, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=*)")}, nil,
			func(*Entry, []Control) error { return nil })
	}()
	depth := reg.Gauge("ldap_admission_queue_depth")
	eventually(t, "the second search queues", func() bool { return depth.Value() == 1 })
	abandon()
	if err := <-queuedDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned search returned %v", err)
	}
	release()
	<-h.cancelled
	eventually(t, "the queue passes over the abandoned search", func() bool { return depth.Value() == 0 })
	if err := quickSearch(c); err != nil {
		t.Fatalf("search after the queue drained: %v", err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("handler ran %d searches, want 2: the parked one and the last", n)
	}
}
