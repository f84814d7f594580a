package ldap

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"mds2/internal/ber"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// Client is an LDAP connection multiplexer: concurrent operations share one
// connection, routed back to callers by message ID. It is the GRIP access
// path used by aggregate directories, brokers, and end users alike.
type Client struct {
	conn net.Conn
	w    *connWriter

	mu            sync.Mutex
	nextID        int64
	pending       map[int64]*pendingOp
	free          []*pendingOp // routing state of completed operations, for reuse
	err           error        // terminal connection error
	closed        bool
	loggedUnknown bool

	// UnknownResponses counts responses whose message ID matched no pending
	// operation — a protocol desync, or a reply that arrived after its
	// caller timed out or abandoned. The first occurrence is also logged to
	// ErrorLog, so desyncs are observable instead of silently dropped.
	// Owners aggregating many clients (the GIIS pool) surface it through an
	// obs.Registry via a CounterFunc rather than a bespoke field.
	UnknownResponses obs.Counter
	// ErrorLog receives client-side protocol warnings; nil discards them.
	ErrorLog *log.Logger

	// Timeout bounds each synchronous round trip (zero means no limit).
	Timeout time.Duration
	// Clock supplies the timeout timer so FakeClock tests drive operation
	// deadlines deterministically; nil means the wall clock.
	Clock softstate.Clock
}

// pendingOp routes responses for one in-flight operation, and is reused by
// later operations once it has routed an operation to its end (see
// register). gone is closed when the caller departs before the end (timeout,
// abandon, error) or the connection fails: the read loop selects on it so a
// response for a departed caller can never wedge on a full channel, and
// waiters use it as the connection-failure signal. An op whose gone has
// closed is never reused.
type pendingOp struct {
	ch   chan *Message
	gone chan struct{}
	left bool // gone is closed; guarded by Client.mu

	// timer runs the operation's Timeout on clock; it puts a token in
	// expired when it fires. An op is reused only when its timer was
	// stopped before firing, so expired is empty at every reuse.
	timer   softstate.Timer
	clock   softstate.Clock
	expired chan struct{}
	timed   bool // the timer is armed for this operation

	// collect marks a search run to completion (Search, SearchWith): the
	// read loop gathers the operation's result entries in entries, a slice
	// it borrowed from its own storage, instead of sending each one down ch,
	// and at the done message swaps it for an exact-size copy the caller
	// owns. The caller reads entries only after the done message arrives on
	// ch, which orders its reads after the read loop's writes.
	collect bool
	entries []*Entry
	// done holds a collected search's done message, which the caller
	// copies out before the op is reused.
	done doneMessage
}

// doneMessage is a SearchResultDone message, the two in one value.
type doneMessage struct {
	msg Message
	op  SearchResultDone
}

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("ldap: client closed")

// Dial connects to a TCP LDAP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (TCP or simulated pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, w: newConnWriter(conn, nil, nil), nextID: 1,
		pending: map[int64]*pendingOp{},
		Timeout: 30 * time.Second, Clock: softstate.RealClock{}}
	go c.readLoop()
	return c
}

// Read chunk sizes. A connection starts with the 4 KiB a bufio.Reader used
// to hold; each chunk that has to be replaced because wire-backed entries
// still point into it is twice the size of the last, up to maxReadChunk, so
// only connections that stream results grow one.
const (
	minReadChunk = 4 << 10
	maxReadChunk = 64 << 10
)

// readLoop frames the connection's responses out of its own read chunk and
// routes them. Every frame is scanned where it lies (see route). A
// SearchResultEntry becomes a wire-backed entry: aliasing the chunk when its
// search collects its result, over a copy of its own when it is streamed.
// A chunk is reused until an entry aliases it; from then on it is only ever
// filled further, then left to the entries that hold it.
func (c *Client) readLoop() {
	var (
		buf    = make([]byte, minReadChunk)
		r, w   int  // buf[r:w] is received and not yet routed
		pinned bool // wire-backed entries alias buf[:r]
		wire   wireEntries
	)
	for {
		n, err := ber.FrameLen(buf[r:w])
		if err != nil {
			c.fail(err)
			return
		}
		if n > 0 && n <= w-r {
			aliased, err := c.route(buf[r:r+n:r+n], &wire)
			if err != nil {
				c.fail(err)
				return
			}
			pinned = pinned || aliased
			r += n
			continue
		}
		// The next frame is incomplete. Slide what is buffered of it to the
		// front of a chunk nothing aliases (as bufio does), or move it to a
		// new chunk when this one is spoken for or too small, then read on.
		if !pinned && len(buf) <= maxReadChunk && r > 0 {
			poisonChunk(buf[:r])
			w = copy(buf, buf[r:w])
			r = 0
		}
		if need := max(n, w-r+1); need > len(buf)-r {
			size := len(buf)
			if pinned {
				size *= 2
			}
			next := make([]byte, max(min(size, maxReadChunk), need))
			w = copy(next, buf[r:w])
			buf, r, pinned = next, 0, false
		}
		m, err := c.conn.Read(buf[w:])
		if err != nil {
			c.fail(err)
			return
		}
		w += m
	}
}

// route delivers one complete response frame to the operation waiting for
// it. aliased reports that the frame's bytes are now referenced by a
// wire-backed entry and must never be overwritten. A result entry becomes a
// wire-backed entry; any other response is scanned into a message that
// views an exact-size copy of its frame, so the chunk stays free to be
// rewound.
func (c *Client) route(frame []byte, wire *wireEntries) (aliased bool, err error) {
	var s scanner
	id, op, controls := s.envelope(frame)
	if s.err != nil {
		return false, s.err
	}
	if op[0] != idSearchEntry {
		// Anything but a continuation reference ends its operation: the op
		// leaves the table here, so nothing read after this reply reaches
		// it, and the caller may reuse it once it has taken the reply.
		pop := c.pendingFor(id, op[0] != idSearchReference)
		var msg *Message
		if pop != nil && pop.collect && op[0] == idSearchDone {
			// A collected search's done message is built into its op.
			msg, err = scanDone(frame, &pop.done)
		} else {
			msg, err = ScanMessage(frame)
		}
		if err != nil {
			if pop != nil {
				c.drop(id, pop)
			}
			return false, err
		}
		if pop != nil && pop.collect && op[0] == idSearchDone {
			pop.entries = wire.handOver(pop.entries)
		}
		c.deliver(pop, msg)
		return false, nil
	}
	dn, attrs := s.searchEntry(op)
	if s.err != nil {
		return false, s.err
	}
	ctls, err := scanControls(controls)
	if err != nil {
		return false, err
	}
	pop := c.pendingFor(id, false)
	collect := pop != nil && pop.collect
	e, err := wire.next(dn, attrs, !collect)
	if err != nil {
		return false, err
	}
	if collect {
		if pop.entries == nil {
			pop.entries = wire.borrow()
		}
		pop.entries = append(pop.entries, e)
		return true, nil
	}
	c.deliver(pop, &Message{ID: id, Op: &SearchResultEntry{Entry: e}, Controls: ctls})
	return false, nil
}

// deliver hands msg to the caller waiting on op, unless there is none or it
// has left.
func (c *Client) deliver(op *pendingOp, msg *Message) {
	if op == nil {
		c.noteUnknown(msg.ID)
		return
	}
	select {
	case op.ch <- msg:
	case <-op.gone:
		// The caller left between the map lookup and the send.
		c.noteUnknown(msg.ID)
	}
}

// pendingFor returns the op routing id, taking it out of the table when
// the response ends the operation.
func (c *Client) pendingFor(id int64, ends bool) *pendingOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.pending[id]
	if ends && op != nil {
		delete(c.pending, id)
	}
	return op
}

// noteUnknown records a response that had no pending operation to route to.
func (c *Client) noteUnknown(id int64) {
	c.UnknownResponses.Inc()
	c.mu.Lock()
	logged := c.loggedUnknown
	c.loggedUnknown = true
	c.mu.Unlock()
	if !logged && c.ErrorLog != nil {
		c.ErrorLog.Printf("ldap: client: dropping response for unknown message ID %d (further drops counted, not logged)", id)
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	ops := make([]*pendingOp, 0, len(c.pending))
	for id, op := range c.pending {
		if !op.left {
			op.left = true
			ops = append(ops, op)
		}
		delete(c.pending, id)
	}
	c.free = nil
	c.mu.Unlock()
	for _, op := range ops {
		close(op.gone)
	}
}

// Close unbinds and tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Best-effort polite unbind; the connection close is authoritative.
	c.write(&Message{ID: c.allocID(), Op: &UnbindRequest{}})
	c.w.close()
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

func (c *Client) allocID() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	return id
}

// register routes responses to id through an op, reusing the routing state
// of an operation that has ended when there is one. With timed, the op's
// timer is armed for the client's Timeout before the op is routable.
func (c *Client) register(id int64, collect, timed bool) (*pendingOp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	if c.closed {
		return nil, ErrClientClosed
	}
	var op *pendingOp
	if n := len(c.free); n > 0 {
		op = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		// The channel holds a collected search's referrals and done
		// message, or a streamed search's entries until its caller takes
		// them.
		op = &pendingOp{ch: make(chan *Message, 64), gone: make(chan struct{})}
	}
	op.collect, op.entries = collect, nil
	op.timed = timed && c.Timeout > 0
	if op.timed {
		clock := c.Clock
		if clock == nil {
			clock = softstate.RealClock{}
		}
		if op.timer == nil || op.clock != clock {
			op.clock, op.expired = clock, make(chan struct{}, 1)
			op.timer = clock.AfterFunc(c.Timeout, op.expire)
		} else {
			op.timer.Reset(c.Timeout)
		}
	}
	c.pending[id] = op
	return op, nil
}

// expire is the op's timer func: it tells the waiter its Timeout passed.
func (op *pendingOp) expire() {
	select {
	case op.expired <- struct{}{}:
	default:
	}
}

// expiry is the channel that fires when the operation's Timeout passes (nil,
// never firing, for an untimed operation).
func (op *pendingOp) expiry() <-chan struct{} {
	if !op.timed {
		return nil
	}
	return op.expired
}

// finish ends the caller's use of op, routed for id. ended says the caller
// took the response that ended the operation; if the read loop has indeed
// dropped op (a reply that ends nothing, such as a reference answering a
// bind, leaves it routable), nothing will touch it again, and op is kept
// for reuse unless its timer had already fired. Otherwise the caller is
// departing early (timeout, abandon, error, closed connection): op leaves
// the table, gone closes so the read loop stops delivering to it, and it is
// never reused — a late reply to id finds no op and is counted as unknown.
func (c *Client) finish(id int64, op *pendingOp, ended bool) {
	stopped := !op.timed || op.timer.Stop()
	c.mu.Lock()
	if ended && stopped && !op.left && c.err == nil && c.pending[id] != op {
		op.entries = nil
		c.free = append(c.free, op)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.drop(id, op)
}

// drop takes op out of the table if it still routes id and closes its gone,
// for good: the op is not reused.
func (c *Client) drop(id int64, op *pendingOp) {
	c.mu.Lock()
	if c.pending[id] == op {
		delete(c.pending, id)
	}
	closing := !op.left
	op.left = true
	c.mu.Unlock()
	if closing {
		close(op.gone)
	}
}

// pendingCount reports in-flight routing entries (test hook for the
// timeout-leak regression).
func (c *Client) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

func (c *Client) write(m *Message) error {
	// Client sends are requests: always worth a flush, since the round trip
	// blocks on the server seeing them.
	return c.w.enqueue(m, true)
}

// roundTrip sends op and waits for a single response message.
func (c *Client) roundTrip(op Op, controls ...Control) (*Message, error) {
	id := c.allocID()
	pop, err := c.register(id, false, true)
	if err != nil {
		return nil, err
	}
	ended := false
	defer func() { c.finish(id, pop, ended) }()
	if err := c.write(&Message{ID: id, Op: op, Controls: controls}); err != nil {
		return nil, err
	}
	select {
	case msg := <-pop.ch:
		ended = true
		return msg, nil
	case <-pop.gone:
		return nil, c.connErr()
	case <-pop.expiry():
		return nil, c.timedOut()
	}
}

func (c *Client) timedOut() error {
	return fmt.Errorf("ldap: operation timed out after %v", c.Timeout)
}

func (c *Client) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClientClosed
}

// Bind performs a simple bind ("" / "" for anonymous).
func (c *Client) Bind(name, password string) error {
	msg, err := c.roundTrip(&BindRequest{Version: 3, Name: name, Password: password})
	if err != nil {
		return err
	}
	resp, ok := msg.Op.(*BindResponse)
	if !ok {
		return fmt.Errorf("ldap: unexpected bind reply %T", msg.Op)
	}
	return resp.Err()
}

// BindSASL performs one SASL bind step and returns the server's response,
// which may be in-progress (ResultSaslBindInProgress) with challenge data.
// Callers loop until success or failure; the GSI mechanism uses two steps.
func (c *Client) BindSASL(name, mech string, creds []byte) (*BindResponse, error) {
	msg, err := c.roundTrip(&BindRequest{Version: 3, Name: name, SASLMech: mech, SASLCreds: creds})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.Op.(*BindResponse)
	if !ok {
		return nil, fmt.Errorf("ldap: unexpected bind reply %T", msg.Op)
	}
	return resp, nil
}

// SearchResult aggregates a completed search.
type SearchResult struct {
	Entries   []*Entry
	Referrals []string
	Result    Result
	// DoneControls are the controls attached to the final SearchResultDone
	// message (e.g. the trace-spans control a traced child hop reports).
	DoneControls []Control
}

// Search runs a search to completion and collects all result entries.
// The client Timeout bounds the whole operation (persistent searches use
// SearchFunc with a caller-managed context instead).
func (c *Client) Search(req *SearchRequest) (*SearchResult, error) {
	return c.SearchWith(req, nil)
}

// SearchWith is Search with request controls attached (e.g. the trace
// control). Result entries come back wire-backed (see Entry): named, but
// with their attributes left in the bytes they arrived in, to be re-emitted
// as they are or decoded on first use. They are immutable snapshots; WithDN
// renames one, Clone or Select copies one. They alias the connection's read
// chunks (at most 64 KiB each), names included: a caller that keeps a few
// entries of a large result for long keeps Clones, or CompactSnapshots the
// slice. The Timeout runs on the client's Clock; a search that outlives it
// is abandoned.
func (c *Client) SearchWith(req *SearchRequest, controls []Control) (*SearchResult, error) {
	res := &SearchResult{}
	err := c.searchFunc(context.Background(), true, req, controls, nil, func(urls []string) error {
		res.Referrals = append(res.Referrals, urls...)
		return nil
	}, res)
	if err != nil {
		return nil, err
	}
	if err := res.Result.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// SearchFunc streams search results through callbacks until the search
// completes, ctx is cancelled (which abandons the operation server-side),
// or a callback returns an error. refFn may be nil to ignore referrals;
// done, when non-nil, receives the final LDAPResult. The entries are the
// immutable wire-backed snapshots SearchWith returns, except that each owns
// its bytes: keeping one keeps that entry and nothing else.
//
// With a persistent-search control attached, the server never sends a
// final done message and SearchFunc runs until ctx is cancelled: this is
// GRIP subscription mode.
func (c *Client) SearchFunc(ctx context.Context, req *SearchRequest, controls []Control,
	entryFn func(*Entry, []Control) error, refFn func([]string) error, done *Result) error {
	var end SearchResult
	err := c.searchFunc(ctx, false, req, controls, entryFn, refFn, &end)
	if done != nil && err == nil {
		*done = end.Result
	}
	return err
}

// searchFunc runs one search until it completes, ctx is cancelled or, when
// timed, the client's Timeout passes; the last two abandon it. A nil
// entryFn collects: the read loop gathers the result entries and the done
// message hands them over in end.Entries — no channel send per entry. On
// the done message it also fills end's Result and DoneControls.
func (c *Client) searchFunc(ctx context.Context, timed bool, req *SearchRequest, controls []Control,
	entryFn func(*Entry, []Control) error, refFn func([]string) error, end *SearchResult) error {

	id := c.allocID()
	pop, err := c.register(id, entryFn == nil, timed)
	if err != nil {
		return err
	}
	ended := false
	defer func() { c.finish(id, pop, ended) }()
	if err := c.write(&Message{ID: id, Op: req, Controls: controls}); err != nil {
		return err
	}
	abandon := func() {
		c.write(&Message{ID: c.allocID(), Op: &AbandonRequest{IDToAbandon: id}})
	}
	for {
		select {
		case <-ctx.Done():
			abandon()
			return ctx.Err()
		case <-pop.expiry():
			abandon()
			return c.timedOut()
		case <-pop.gone:
			return c.connErr()
		case msg := <-pop.ch:
			switch op := msg.Op.(type) {
			case *SearchResultEntry:
				if err := entryFn(op.Entry, msg.Controls); err != nil {
					abandon()
					return err
				}
			case *SearchResultReference:
				if refFn != nil {
					if err := refFn(op.URLs); err != nil {
						abandon()
						return err
					}
				}
			case *SearchResultDone:
				end.Result, end.DoneControls, end.Entries = op.Result, msg.Controls, pop.entries
				ended = true
				return nil
			default:
				ended = true
				return fmt.Errorf("ldap: unexpected search reply %T", msg.Op)
			}
		}
	}
}

// Add inserts an entry.
func (c *Client) Add(e *Entry) error {
	msg, err := c.roundTrip(&AddRequest{Entry: e})
	if err != nil {
		return err
	}
	resp, ok := msg.Op.(*AddResponse)
	if !ok {
		return fmt.Errorf("ldap: unexpected add reply %T", msg.Op)
	}
	return resp.Err()
}

// Delete removes an entry by DN.
func (c *Client) Delete(dn string) error {
	msg, err := c.roundTrip(&DelRequest{DN: dn})
	if err != nil {
		return err
	}
	resp, ok := msg.Op.(*DelResponse)
	if !ok {
		return fmt.Errorf("ldap: unexpected delete reply %T", msg.Op)
	}
	return resp.Err()
}

// Modify applies changes to an entry.
func (c *Client) Modify(dn string, changes []ModifyChange) error {
	msg, err := c.roundTrip(&ModifyRequest{DN: dn, Changes: changes})
	if err != nil {
		return err
	}
	resp, ok := msg.Op.(*ModifyResponse)
	if !ok {
		return fmt.Errorf("ldap: unexpected modify reply %T", msg.Op)
	}
	return resp.Err()
}

// Extended invokes an extended operation.
func (c *Client) Extended(oid string, value []byte) (*ExtendedResponse, error) {
	msg, err := c.roundTrip(&ExtendedRequest{OID: oid, Value: value})
	if err != nil {
		return nil, err
	}
	resp, ok := msg.Op.(*ExtendedResponse)
	if !ok {
		return nil, fmt.Errorf("ldap: unexpected extended reply %T", msg.Op)
	}
	if err := resp.Err(); err != nil {
		return resp, err
	}
	return resp, nil
}
