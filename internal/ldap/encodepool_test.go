package ldap

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"mds2/internal/ber"
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
