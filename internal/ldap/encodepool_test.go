package ldap

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"mds2/internal/ber"
	"mds2/internal/softstate"
)

// panicOp is an operation whose encoder panics, as an mdsdebug seal or
// Builder.Bytes' open-element check does on a message it must not send.
type panicOp struct{}

func (panicOp) appendOp(*ber.Builder) { panic("encoder refused the message") }

// TestEnqueuePanicReleasesWriter: an encoder that panics while the
// connection writer holds its lock reaches the caller, and the writer is
// left usable: the close a connection defers flushes what was queued before
// and returns, where it used to wait on the lock for ever.
func TestEnqueuePanicReleasesWriter(t *testing.T) {
	queued := &Message{ID: 7, Op: &SearchResultDone{}}
	for name, enqueue := range map[string]func(w *connWriter){
		"message": func(w *connWriter) { w.enqueue(&Message{ID: 8, Op: panicOp{}}, true) },
		// A nil entry makes the entry encoder panic.
		"entry": func(w *connWriter) { w.enqueueEntry(8, nil, nil, nil, true) },
	} {
		t.Run(name, func(t *testing.T) {
			near, far := net.Pipe()
			defer far.Close()
			sent := make(chan []byte, 1)
			go func() {
				b, _ := io.ReadAll(far)
				sent <- b
			}()
			w := newConnWriter(near, nil, nil)
			if err := w.enqueue(queued, false); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("the encoder's panic did not reach the caller")
					}
				}()
				enqueue(w)
			}()
			closed := make(chan struct{})
			go func() {
				w.close()
				near.Close()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("close hangs: the panicking encoder left the writer locked")
			}
			if got := <-sent; !bytes.Equal(got, queued.Encode()) {
				t.Errorf("writer sent\n% x\nwant the message queued before the panic\n% x", got, queued.Encode())
			}
		})
	}
}

// stalledStream streams n entries, sends no done message, says so on sent
// and blocks until its search ends: a provider that stalls mid-stream, as a
// GIIS waiting on a slow child does.
type stalledStream struct {
	BaseHandler
	n    int
	sent chan struct{}
}

func (h *stalledStream) Search(req *Request, _ *SearchRequest, w SearchWriter) Result {
	for i := 0; i < h.n; i++ {
		if err := w.SendEntry(sevenAttrEntry(i)); err != nil {
			return Result{Code: ResultOther}
		}
	}
	h.sent <- struct{}{}
	<-req.Ctx.Done()
	return Result{Code: ResultSuccess}
}

// TestIdleFlushPushesStalledStream: entries a stalled search has streamed
// sit in its connection's writer until the writer's clock passes
// idleFlushDelay, and then all of them reach the client; closing a writer
// with frames still pending flushes them.
func TestIdleFlushPushesStalledStream(t *testing.T) {
	t.Run("idle flush", func(t *testing.T) {
		fc := softstate.NewFakeClock()
		h := &stalledStream{n: 3, sent: make(chan struct{}, 1)}
		srv := NewServer(h)
		srv.Clock = fc
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got := make(chan *Entry, 8)
		go c.SearchFunc(ctx, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil,
			func(e *Entry, _ []Control) error {
				got <- e
				return nil
			})
		select {
		case <-h.sent:
		case <-time.After(5 * time.Second):
			t.Fatal("the handler never streamed its entries")
		}
		quiet := func(when string) {
			select {
			case e := <-got:
				t.Fatalf("%s: the client received %s", when, e)
			case <-time.After(30 * time.Millisecond):
			}
		}
		quiet("before the clock moved")
		fc.Advance(idleFlushDelay - time.Nanosecond)
		quiet("before the clock passed idleFlushDelay")
		// Step on until the flush comes, in case the writer armed its wait
		// after the first step.
		deadline := time.Now().Add(5 * time.Second)
		for n := 0; n < h.n; {
			fc.Advance(idleFlushDelay)
			select {
			case e := <-got:
				if want := sevenAttrEntry(n).DN; !e.DN.Equal(want) {
					t.Fatalf("entry %d: got %s, want %s", n, e.DN, want)
				}
				n++
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d entries arrived after the idle flush", n, h.n)
				}
			}
		}
		quiet("after the three entries")
	})

	t.Run("close flushes", func(t *testing.T) {
		near, far := net.Pipe()
		defer far.Close()
		w := newConnWriter(near, softstate.NewFakeClock(), nil)
		var want []byte
		for i := 0; i < 3; i++ {
			m := &Message{ID: 5, Op: &SearchResultEntry{Entry: sevenAttrEntry(i)}}
			if err := w.enqueue(m, false); err != nil {
				t.Fatal(err)
			}
			want = append(want, m.Encode()...)
		}
		far.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		if n, err := far.Read(make([]byte, 1)); err == nil {
			t.Fatalf("%d bytes left the writer before any flush", n)
		}
		far.SetReadDeadline(time.Time{})
		go func() {
			w.close()
			near.Close()
		}()
		if sent, _ := io.ReadAll(far); !bytes.Equal(sent, want) {
			t.Errorf("close sent % x\nwant the three pending frames % x", sent, want)
		}
	})
}
