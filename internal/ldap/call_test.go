package ldap

import (
	"fmt"
	"net"
	"strings"
	"sync"
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

// TestCallPostedOnceWhateverEndsIt: a collected op ends by its done reply,
// its Timeout, a connection failure or Close, whichever comes first, and its
// call is handed to Done exactly once — with its result, or with why it
// ended without one. Each round races all four over 16 ops in flight, half
// of which the server answers.
func TestCallPostedOnceWhateverEndsIt(t *testing.T) {
	const ops = 16
	for round := 0; round < 50; round++ {
		client, server := net.Pipe()
		go answerEven(server)
		c := NewClient(client)
		fc := softstate.NewFakeClock()
		c.Clock, c.Timeout = fc, time.Second
		done := make(Chan, 2*ops)
		for i := 0; i < ops; i++ {
			c.Start(&Call{Done: done}, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil)
		}
		var wg sync.WaitGroup
		for _, end := range []func(){
			func() { fc.Advance(time.Second) },
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
// after a timeout may start its next op on it at once. The first op's
// routing state is given up for good: its late reply is counted unknown,
// frame by frame, and the call gets the next op's entries and nothing of
// the late one's.
func TestLateReplyNeverReachesReusedCall(t *testing.T) {
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
	c.Start(call, &SearchRequest{BaseDN: "ou=late", Scope: ScopeWholeSubtree}, nil)
	started("ou=late")
	fc.Advance(c.Timeout) // the op armed its timer before its request left
	if <-done; call.Err == nil || !strings.Contains(call.Err.Error(), "timed out") {
		t.Fatalf("first op: want a timeout, got %v", call.Err)
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
	if call.Err != nil || len(call.Entries) != 3 || call.Result.Code != ResultSuccess {
		t.Fatalf("second op: %d entries, result %+v, err %v", len(call.Entries), call.Result, call.Err)
	}
	for i, e := range call.Entries {
		if want := MustParseDN(fmt.Sprintf("hn=h%d, ou=next", i)); !e.DN.Equal(want) {
			t.Fatalf("second op: entry %d is %s, want %s", i, e.DN, want)
		}
	}
	if got := c.UnknownResponses.Value(); got != 4 {
		t.Fatalf("UnknownResponses = %d, want the late reply's 4 frames", got)
	}
}

// pendingCount reports in-flight routing entries.
func (c *Client) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
