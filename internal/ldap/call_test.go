package ldap

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/ber"
	"mds2/internal/softstate"
)

// answerEven plays a server on conn: it answers each request with an even
// message ID with a done message at once, and never answers the others.
func answerEven(conn net.Conn) {
	buf := make([]byte, 0, 4096)
	chunk := make([]byte, 4096)
	for {
		n, err := conn.Read(chunk)
		if err != nil {
			return
		}
		buf = append(buf, chunk[:n]...)
		for {
			k, err := ber.FrameLen(buf)
			if err != nil || k == 0 || k > len(buf) {
				break
			}
			m, err := ScanMessage(buf[:k])
			buf = buf[k:]
			if err == nil && m.ID%2 == 0 {
				if _, err := conn.Write((&Message{ID: m.ID, Op: &SearchResultDone{}}).Encode()); err != nil {
					return
				}
			}
		}
	}
}

// keptEntries is a Chan that takes its search's entries and keeps them.
type keptEntries struct {
	Chan
	entries []*Entry
}

func (k *keptEntries) TakeEntry(e *Entry, _ []Control) bool {
	k.entries = append(k.entries, e)
	return true
}

var errStopped = errors.New("stopped by the test")

// TestCallPostedOnceWhateverEndsIt: an op ends by its done reply, its
// Timeout (unless it takes its entries), Stop, a connection failure or
// Close, whichever comes first, and its call is handed to Done exactly once
// — with its result, or with why it ended without one. Each round races all
// five over 16 ops in flight, half of which the server answers and half of
// which take their entries.
func TestCallPostedOnceWhateverEndsIt(t *testing.T) {
	const ops = 16
	for round := 0; round < 50; round++ {
		client, server := net.Pipe()
		go answerEven(server)
		c := NewClient(client)
		fc := softstate.NewFakeClock()
		c.Clock, c.Timeout = fc, time.Second
		done := make(Chan, 2*ops)
		calls := make([]*Call, ops)
		for i := range calls {
			calls[i] = &Call{Done: done}
			if i%4 >= 2 { // IDs run from 1: answered and unanswered takers
				calls[i].Done = &keptEntries{Chan: done}
			}
			c.Start(calls[i], &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil)
		}
		var wg sync.WaitGroup
		for _, end := range []func(){
			func() { fc.Advance(time.Second) },
			func() {
				for _, call := range calls {
					c.Stop(call, errStopped)
				}
			},
			func() { server.Close() },
			func() { c.Close() },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				end()
			}()
		}
		wg.Wait()
		posted := map[*Call]int{}
		for n := 0; n < ops; n++ {
			select {
			case call := <-done:
				posted[call]++
				if call.Err == nil && call.Result.Code != ResultSuccess {
					t.Fatalf("round %d: a call posted without an error carries result %+v", round, call.Result)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d calls posted", round, n, ops)
			}
		}
		select {
		case call := <-done:
			t.Fatalf("round %d: a call was posted again (err %v)", round, call.Err)
		case <-time.After(5 * time.Millisecond):
		}
		if len(posted) != ops {
			t.Fatalf("round %d: %d distinct calls posted for %d ops", round, len(posted), ops)
		}
		if n := c.pendingCount(); n != 0 {
			t.Fatalf("round %d: %d ops still routable", round, n)
		}
	}
}

// TestLateReplyNeverReachesReusedCall: a caller that takes its call back
// after a timeout, or after it stopped an op that takes its entries, may
// start its next op on it at once. The first op's routing state is given
// up for good: its late reply is counted unknown, frame by frame, and the
// call gets the next op's entries and nothing of the late one's.
func TestLateReplyNeverReachesReusedCall(t *testing.T) {
	t.Run("timed out", func(t *testing.T) { lateReplyAfterReuse(t, false) })
	t.Run("stopped taker", func(t *testing.T) { lateReplyAfterReuse(t, true) })
}

func lateReplyAfterReuse(t *testing.T, streamed bool) {
	h := &heldSearches{started: make(chan string, 2), release: map[string]chan struct{}{
		"ou=late": make(chan struct{}), "ou=next": make(chan struct{}),
	}}
	srv := NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	released := map[string]bool{}
	release := func(base string) {
		released[base] = true
		close(h.release[base])
	}
	t.Cleanup(func() {
		for base := range h.release {
			if !released[base] {
				release(base)
			}
		}
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fc := softstate.NewFakeClock()
	c.Clock, c.Timeout = fc, time.Hour
	started := func(base string) {
		t.Helper()
		select {
		case got := <-h.started:
			if got != base {
				t.Fatalf("server started %q, want %q", got, base)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the search of %q never reached the server", base)
		}
	}

	done := make(Chan, 1)
	call := &Call{Done: done}
	kept := &keptEntries{Chan: done}
	if streamed {
		call.Done = kept
	}
	c.Start(call, &SearchRequest{BaseDN: "ou=late", Scope: ScopeWholeSubtree}, nil)
	started("ou=late")
	if streamed {
		c.Stop(call, errStopped)
		if <-done; call.Err != errStopped {
			t.Fatalf("first op: want it stopped, got %v", call.Err)
		}
	} else {
		fc.Advance(c.Timeout) // the op armed its timer before its request left
		if <-done; call.Err == nil || !strings.Contains(call.Err.Error(), "timed out") {
			t.Fatalf("first op: want a timeout, got %v", call.Err)
		}
	}

	c.Start(call, &SearchRequest{BaseDN: "ou=next", Scope: ScopeWholeSubtree}, nil)
	started("ou=next")
	release("ou=late")
	for start := time.Now(); c.UnknownResponses.Value() < 4; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("late reply: %d of its 4 frames counted as unknown", c.UnknownResponses.Value())
		}
	}
	release("ou=next")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second op never ended")
	}
	entries := call.Entries
	if streamed {
		entries = kept.entries
	}
	if call.Err != nil || len(entries) != 3 || call.Result.Code != ResultSuccess {
		t.Fatalf("second op: %d entries, result %+v, err %v", len(entries), call.Result, call.Err)
	}
	for i, e := range entries {
		if want := MustParseDN(fmt.Sprintf("hn=h%d, ou=next", i)); !e.DN.Equal(want) {
			t.Fatalf("second op: entry %d is %s, want %s", i, e.DN, want)
		}
	}
	if got := c.UnknownResponses.Value(); got != 4 {
		t.Fatalf("UnknownResponses = %d, want the late reply's 4 frames", got)
	}
}

// strictTaker takes a stream's entries and fails the test if one reaches
// it with or after CallEnded: took is a plain field that TakeEntry writes
// and CallEnded reads, so the race detector reports any overlap, and over
// catches a later entry. At entry at it closes mid, then holds the entry
// until hold closes when hold is set, and declines it when decline is set.
type strictTaker struct {
	t       *testing.T
	took    int
	at      int
	mid     chan struct{}
	hold    chan struct{}
	decline bool
	over    atomic.Bool
	ended   chan struct{}
}

func (s *strictTaker) TakeEntry(*Entry, []Control) bool {
	if s.over.Load() {
		s.t.Error("an entry reached its taker after CallEnded")
	}
	if s.took++; s.took == s.at {
		close(s.mid)
		if s.hold != nil {
			<-s.hold
		}
		return !s.decline
	}
	runtime.Gosched()
	return true
}

func (s *strictTaker) CallEnded(call *Call) {
	if s.over.Swap(true) {
		s.t.Error("CallEnded twice")
		return
	}
	if s.took < s.at {
		s.t.Errorf("the call ended after %d entries, before the test ended it (err %v)", s.took, call.Err)
	}
	close(s.ended)
}

// TestNoEntryAfterCallEnded: CallEnded is the last thing a taker sees. Each
// round streams 1,000 entries to a taker and, once an entry partway through
// has reached it, ends the op while the read loop hands it the rest: Stop
// and Close race each other and the stream, or one of them comes while the
// taker holds that entry, or Close races the taker declining it. The call
// ends once, and no TakeEntry runs with CallEnded or after it.
func TestNoEntryAfterCallEnded(t *testing.T) {
	addr := startWireServer(t, 1000, false).conn.RemoteAddr().String()
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}
	for round := 0; round < 32; round++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		s := &strictTaker{t: t, at: 1 + 31*round, mid: make(chan struct{}), ended: make(chan struct{})}
		call := &Call{Done: s}
		stop := func() { c.Stop(call, errStopped) }
		closing := func() { c.Close() }
		var ends []func()
		switch round % 4 {
		case 0:
			ends = []func(){stop, closing}
		case 1:
			s.hold, ends = make(chan struct{}), []func(){stop}
		case 2:
			s.hold, ends = make(chan struct{}), []func(){closing}
		case 3:
			s.decline, ends = true, []func(){closing}
		}
		c.Start(call, req, nil)
		select {
		case <-s.mid:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: entry %d never reached the taker", round, s.at)
		}
		var wg sync.WaitGroup
		for _, end := range ends {
			wg.Add(1)
			go func() {
				defer wg.Done()
				end()
			}()
		}
		wg.Wait()
		if s.hold != nil {
			if s.over.Load() {
				t.Fatalf("round %d: the call ended while its taker held an entry", round)
			}
			close(s.hold)
		}
		select {
		case <-s.ended:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the call never ended", round)
		}
		if s.hold != nil && call.Err != errStopped && call.Err != ErrClientClosed {
			t.Fatalf("round %d: a held call ended with %v", round, call.Err)
		}
		c.Close()
	}
}

// heldSearch is a handler that holds every search's reply: it tells started
// that a search arrived, then waits until the op is abandoned or its
// connection closes.
type heldSearch struct {
	BaseHandler
	started chan struct{}
}

func (h heldSearch) Search(req *Request, _ *SearchRequest, _ SearchWriter) Result {
	h.started <- struct{}{}
	<-req.Ctx.Done()
	return Result{Code: ResultSuccess}
}

// TestCloseEndsPendingOpsWithErrClientClosed: ops pending when their
// client's own Close comes — one collecting its result, one taking its
// entries, both held by the server — end with ErrClientClosed, not with the
// read loop's error from the connection Close closed.
func TestCloseEndsPendingOpsWithErrClientClosed(t *testing.T) {
	h := heldSearch{started: make(chan struct{}, 2)}
	srv := NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}
	for round := 0; round < 50; round++ {
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		done := make(Chan, 2)
		calls := map[*Call]string{{Done: done}: "collected", {Done: &keptEntries{Chan: done}}: "taker"}
		for call := range calls {
			c.Start(call, req, nil)
		}
		for range calls {
			select {
			case <-h.started:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a search never reached the server", round)
			}
		}
		c.Close()
		for range calls {
			select {
			case call := <-done:
				if !errors.Is(call.Err, ErrClientClosed) {
					t.Fatalf("round %d: the %s op ended with %v, want %v", round, calls[call], call.Err, ErrClientClosed)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a pending op never ended", round)
			}
		}
	}
}

// pendingCount reports in-flight routing entries.
func (c *Client) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
