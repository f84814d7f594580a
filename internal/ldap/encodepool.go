package ldap

import (
	"net"
	"sync"
	"time"

	"mds2/internal/ber"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// Outbound messages sit on every chained operation, cache hit, and streamed
// search entry, so the client and server share a per-connection coalescing
// writer: messages encode (direct emit, see emit.go) into one pending
// buffer, and consecutive messages drain to the socket in a single
// conn.Write. A streamed search of N entries costs O(N/batch) syscalls
// instead of N.

// maxPooledEncodeBuf bounds the buffers a connWriter recycles: an
// occasional huge search entry must not pin megabytes for the life of a
// connection.
const maxPooledEncodeBuf = 64 << 10

// flushThreshold drains the pending buffer even without an explicit flush,
// bounding both batch latency and buffer growth.
const flushThreshold = 16 << 10

// idleFlushDelay is how long buffered frames may wait for a batch to build
// before the idle timer pushes them out (covers providers that stall
// mid-stream, e.g. a GIIS waiting on a slow child).
const idleFlushDelay = 2 * time.Millisecond

// connWriter coalesces outbound LDAP messages onto one connection.
//
// Writers encode under mu and return; the actual syscall happens in
// whichever goroutine finds no drain in progress (the combining-writer
// pattern: the active drainer releases mu around conn.Write, then re-checks
// for frames enqueued meanwhile). Callers that just streamed a
// non-terminal message may leave bytes pending; the connection's one idle
// timer, armed on the injected clock when frames are left pending and
// stopped when a drain empties the buffer, flushes them after
// idleFlushDelay. A writer whose every message flushes (a Client's) never
// makes the timer.
type connWriter struct {
	conn  net.Conn
	clock softstate.Clock
	// batch, when non-nil, observes the byte size of every coalesced write
	// handed to the socket. Fixed at construction so drains from any
	// goroutine read it without synchronization.
	batch *obs.Histogram

	mu      sync.Mutex
	b       ber.Builder // encodes each message onto buf
	buf     []byte      // encoded frames awaiting the wire
	spare   []byte      // recycled drain buffer
	writing bool        // a goroutine is draining buf
	err     error       // sticky first write error

	idle      softstate.Timer // calls idleFlush; made on first use, then re-armed
	idleArmed bool            // idle is armed (or its call has begun)
}

func newConnWriter(conn net.Conn, clock softstate.Clock, batch *obs.Histogram) *connWriter {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &connWriter{conn: conn, clock: clock, batch: batch}
}

// enqueue encodes m onto the pending buffer. With flushNow (responses,
// done messages, anything latency-sensitive) or once the buffer passes
// flushThreshold, the buffer drains before returning — unless another
// goroutine is already draining, in which case that drain picks the new
// frames up and enqueue returns immediately. Write errors are sticky and
// surface on the current or a later call.
func (w *connWriter) enqueue(m *Message, flushNow bool) error {
	w.mu.Lock()
	if w.err == nil {
		encoding := true
		defer w.unlockIfPanicked(&encoding)
		w.b.Reset(w.buf)
		m.appendTo(&w.b)
		w.buf = w.b.Bytes()
		encoding = false
	}
	return w.queuedLocked(flushNow)
}

// enqueueEntry is enqueue for the message carrying e restricted to attrs as
// a SearchResultEntry, encoded straight from the entry: a search writer
// makes no Message, no Op, no projection and no interface call for each
// result entry.
func (w *connWriter) enqueueEntry(id int64, e *Entry, attrs []string, controls []Control, flushNow bool) error {
	w.mu.Lock()
	if w.err == nil {
		encoding := true
		defer w.unlockIfPanicked(&encoding)
		w.b.Reset(w.buf)
		appendEntryMessage(&w.b, id, e, attrs, controls)
		w.buf = w.b.Bytes()
		encoding = false
	}
	return w.queuedLocked(flushNow)
}

// unlockIfPanicked is deferred by an enqueue while it encodes under mu:
// when the encoder panics (an mdsdebug seal, Builder.Bytes' open-element
// check), it drops the half-encoded message and releases mu as the panic
// goes on up, so the owner's deferred close can still flush what was
// queued before, instead of hanging on mu. The pending buffer is as it was:
// the message was only ever written past its end.
func (w *connWriter) unlockIfPanicked(encoding *bool) {
	if *encoding {
		w.b.Reset(nil)
		w.mu.Unlock()
	}
}

// queuedLocked ends an enqueue: it drains the pending buffer when asked to
// or once it has passed flushThreshold, and otherwise leaves the frames to
// the idle timer. A sticky write error is returned as it is. Caller holds
// mu; queuedLocked releases it.
func (w *connWriter) queuedLocked(flushNow bool) error {
	w.b.Reset(nil) // between messages the builder holds no buffer alive
	if w.err == nil && !flushNow && len(w.buf) < flushThreshold {
		w.armIdleLocked()
		w.mu.Unlock()
		return nil
	}
	err := w.drainLocked()
	w.mu.Unlock()
	return err
}

// drainLocked writes pending frames to the socket. Caller holds mu; the
// lock is released around each conn.Write so other writers keep encoding
// while the syscall is in flight, and re-checked afterwards to pick up
// frames they enqueued. At most one goroutine drains at a time; others
// return immediately and their frames ride the active drain.
func (w *connWriter) drainLocked() error {
	if w.writing {
		return w.err
	}
	w.writing = true
	for len(w.buf) > 0 && w.err == nil {
		buf := w.buf
		w.buf = w.spare[:0]
		w.spare = nil
		w.mu.Unlock()
		w.batch.ObserveValue(int64(len(buf))) // nil-safe no-op when unobserved
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
		if cap(buf) <= maxPooledEncodeBuf {
			w.spare = buf[:0]
		}
	}
	w.writing = false
	if len(w.buf) == 0 && w.idleArmed && w.idle.Stop() {
		// Nothing is left for the idle timer to push out. When Stop comes
		// too late, idleFlush is on its way and disarms itself.
		w.idleArmed = false
	}
	return w.err
}

// armIdleLocked makes sure the idle timer will flush the frames just left
// pending, one idleFlushDelay from the first of them (letting a batch
// accumulate). Caller holds mu.
func (w *connWriter) armIdleLocked() {
	if w.idleArmed {
		return
	}
	w.idleArmed = true
	if w.idle == nil {
		w.idle = w.clock.AfterFunc(idleFlushDelay, w.idleFlush)
	} else {
		w.idle.Reset(idleFlushDelay)
	}
}

// idleFlush is the flush-of-last-resort, run by the idle timer: it drains
// whatever is buffered. A sticky error resurfaces on the next enqueue.
func (w *connWriter) idleFlush() {
	w.mu.Lock()
	w.idleArmed = false
	w.drainLocked()
	w.mu.Unlock()
}

// close flushes pending frames and stops the idle timer. It does not close
// the connection; the owner does that.
func (w *connWriter) close() {
	w.mu.Lock()
	w.drainLocked()
	if w.idle != nil {
		w.idle.Stop()
	}
	w.mu.Unlock()
}
