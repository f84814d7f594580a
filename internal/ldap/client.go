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

	// Timeout bounds each operation whose ender does not take its entries
	// (see EntryTaker); zero means no limit.
	Timeout time.Duration
	// Clock supplies the timeout timer so FakeClock tests drive operation
	// deadlines deterministically; nil means the wall clock.
	Clock softstate.Clock
}

// Call is one operation begun with Start, in the shape of net/rpc's Call.
// It ends exactly once — by its reply, its Timeout on the client's Clock,
// Stop, a connection failure or Close, whichever comes first — and is then
// handed to Done on the goroutine that ended it: the client's read loop,
// the Timeout's timer, Stop's caller, the one that failed or closed the
// connection, or Start's own. It is the caller's again once handed back.
type Call struct {
	Done         CallEnder // must not wait for a reply: none is read meanwhile
	Err          error     // why the op ended without its reply; nil when it came
	SearchResult           // what a search collected (see SearchWith)
	Reply        *Message  // the response that ended any other operation

	req Message // the request as sent
}

// CallEnder takes the Calls a client ends (see Call).
type CallEnder interface{ CallEnded(*Call) }

// EntryTaker is implemented by a CallEnder that takes its search's entries
// itself rather than have the Call collect them: each is handed to
// TakeEntry in order on the client's read loop, so TakeEntry must not wait
// for a reply either, and owns its bytes (see SearchFunc). Returning false
// stops the op (see Stop). CallEnded is the last thing a taker sees: no
// TakeEntry runs with it or after it, whatever ends the op. A taker's op
// has no Timeout.
type EntryTaker interface {
	TakeEntry(e *Entry, controls []Control) bool
}

// Chan is net/rpc's Done: it posts each call on the channel, which must
// have room for it, as the client never waits.
type Chan chan *Call

func (ch Chan) CallEnded(call *Call) { ch <- call }

// pendingOp routes responses for one in-flight operation. It is reused
// only after its done reply ended it with its timer stopped, so a late
// reply finds no op.
type pendingOp struct {
	id    int64
	call  *Call
	taker EntryTaker // call.Done, when it takes its entries

	// entries, refs and done: a search's result, gathered and handed over
	// by the read loop alone (entries only when there is no taker).
	entries []*Entry
	refs    []string
	done    doneMessage
	// timer runs the op's Timeout on clock; timed: it is armed.
	timer softstate.Timer
	clock softstate.Clock
	timed bool
	// taking: the read loop is handing the taker an entry, and an end that
	// comes meanwhile leaves the call to it (see take); guarded by Client.mu.
	taking bool
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
// search collects its result, over a copy of its own when a taker takes it.
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
		pop := c.pendingFor(id, op[0])
		if pop != nil {
			return false, c.collect(pop, op[0], frame, wire)
		}
		if _, err := ScanMessage(frame); err != nil {
			return false, err
		}
		c.noteUnknown(id)
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
	pop := c.pendingFor(id, op[0])
	if pop != nil && pop.taker != nil {
		return false, c.take(pop, dn, attrs, ctls, wire)
	}
	e, err := wire.next(dn, attrs, pop == nil)
	switch {
	case err != nil:
		return false, err
	case pop == nil:
		c.noteUnknown(id)
		return false, nil
	}
	if pop.entries == nil {
		pop.entries = wire.borrow()
	}
	pop.entries = append(pop.entries, e)
	return true, nil
}

// take hands an entry to op's taker; pendingFor marked op taking. An end
// that comes meanwhile (Stop, a failure, Close) takes op out of the table
// but leaves its call to take, to end once TakeEntry has returned: so
// CallEnded is the last thing a taker sees.
func (c *Client) take(op *pendingOp, dn, attrs []byte, ctls []Control, wire *wireEntries) error {
	e, err := wire.next(dn, attrs, true)
	more := err == nil && op.taker.TakeEntry(e, ctls)
	c.mu.Lock()
	op.taking = false
	switch {
	case c.pending[op.id] != op:
		c.mu.Unlock()
		c.post(op, op.call.Err)
	case more || err != nil: // a failing connection ends it
		c.mu.Unlock()
	default:
		c.stop(op, nil, errTakerStopped)
	}
	return err
}

// collect takes an op's continuation reference, or the response that ended
// it (and took op out of the table): the call gets the result, and op is
// reused if its timer was stopped before it fired.
func (c *Client) collect(op *pendingOp, tag byte, frame []byte, wire *wireEntries) error {
	var msg *Message
	var err error
	if tag == idSearchDone {
		msg, err = scanDone(frame, &op.done) // built into the op
	} else {
		msg, err = ScanMessage(frame)
	}
	switch {
	case err != nil:
		if tag != idSearchReference {
			c.post(op, err)
		} // else the failing connection ends it
		return err
	case tag == idSearchReference:
		op.refs = append(op.refs, msg.Op.(*SearchResultReference).URLs...)
		return nil
	}
	call := op.call
	call.Entries, call.Referrals = wire.handOver(op.entries), op.refs
	if tag == idSearchDone {
		call.Result, call.DoneControls = op.done.op.Result, msg.Controls
	} else {
		call.Reply = msg
	}
	op.call, op.entries, op.refs = nil, nil, nil
	if !op.timed || op.timer.Stop() {
		c.mu.Lock()
		if c.err == nil {
			c.free = append(c.free, op)
		}
		c.mu.Unlock()
	}
	call.Done.CallEnded(call)
	return nil
}

// pendingFor returns the op routing a response with tag to id. Anything but
// an entry or a continuation reference ends the operation and takes the op
// out of the table, so nothing read after it reaches the op; an entry for a
// taker marks the op taking (see take).
func (c *Client) pendingFor(id int64, tag byte) *pendingOp {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.pending[id]
	switch {
	case op == nil:
	case tag == idSearchEntry:
		op.taking = op.taker != nil
	case tag != idSearchReference:
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

// fail ends every pending operation with the connection's first error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	ops := make([]*pendingOp, 0, len(c.pending))
	for id, op := range c.pending {
		delete(c.pending, id)
		if op.taking {
			op.call.Err = err // take ends it
		} else {
			ops = append(ops, op)
		}
	}
	c.free = nil
	c.mu.Unlock()
	for _, op := range ops {
		c.post(op, err)
	}
}

// Close unbinds and tears down the connection. Every op still pending ends
// with ErrClientClosed: it is the client's error before the connection
// closes, so the read loop failing on the closed connection reports it too.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.err == nil {
		c.err = ErrClientClosed
	}
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

// register routes call's responses to a new message ID through an op —
// one that ended by its reply if there is one — with its taker resolved
// and, unless it has one, its timer armed before it is routable.
func (c *Client) register(call *Call, req Op, controls []Control) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClientClosed
	}
	id := c.nextID
	c.nextID++
	var op *pendingOp
	if n := len(c.free); n > 0 {
		op, c.free[n-1], c.free = c.free[n-1], nil, c.free[:n-1]
	} else {
		op = &pendingOp{}
	}
	op.id, op.call = id, call
	op.taker, _ = call.Done.(EntryTaker)
	c.pending[id] = op
	call.req = Message{ID: id, Op: req, Controls: controls}
	clock := c.Clock
	if clock == nil {
		clock = softstate.RealClock{}
	}
	switch op.timed = c.Timeout > 0 && op.taker == nil; {
	case !op.timed:
	case op.timer == nil || op.clock != clock:
		op.clock = clock
		op.timer = clock.AfterFunc(c.Timeout, func() { c.expire(op) })
	default:
		op.timer.Reset(c.Timeout)
	}
	return nil
}

// errTakerStopped ends an op whose taker declined an entry.
var errTakerStopped = errors.New("ldap: entry taker stopped the search")

// Stop ends call's op without its reply, unless it has ended: the call
// fails with err, and a search is abandoned at the server. It is the one
// way to end an op early; a late reply is counted in UnknownResponses.
func (c *Client) Stop(call *Call, err error) {
	c.mu.Lock()
	c.stop(c.pending[call.req.ID], call, err)
}

// expire is an op's timer func: Stop with the timeout.
func (c *Client) expire(op *pendingOp) {
	c.mu.Lock()
	c.stop(op, nil, fmt.Errorf("ldap: operation timed out after %v", c.Timeout))
}

// stop is Stop for op, unless it has left the table or serves another call
// than call (when set); c.mu is held, and released here. While the read
// loop hands op's taker an entry, take ends the call.
func (c *Client) stop(op *pendingOp, call *Call, err error) {
	if op == nil || c.pending[op.id] != op || call != nil && op.call != call {
		c.mu.Unlock()
		return
	}
	delete(c.pending, op.id)
	id, taking := op.id, op.taking
	_, search := op.call.req.Op.(*SearchRequest)
	if taking {
		op.call.Err = err
	}
	c.mu.Unlock()
	if !taking {
		c.post(op, err)
	}
	if search {
		c.write(&Message{ID: c.allocID(), Op: &AbandonRequest{IDToAbandon: id}})
	}
}

// post ends an op, already out of the table, without its reply: its call
// fails with err, and the op is never reused.
func (c *Client) post(op *pendingOp, err error) {
	if op.timed {
		op.timer.Stop()
	}
	call := op.call
	call.Err = err
	call.Done.CallEnded(call)
}

func (c *Client) write(m *Message) error {
	// Client sends are requests: always worth a flush, since the round trip
	// blocks on the server seeing them.
	return c.w.enqueue(m, true)
}

// Start sends req and returns without waiting for the reply: call is handed
// back when the operation ends (see Call), perhaps before Start returns,
// with a search's result collected as SearchWith returns it (its entries
// taken instead when Done is an EntryTaker), or any other operation's
// Reply. req and controls must not change until then. A search that
// outlives the Timeout is abandoned.
func (c *Client) Start(call *Call, req Op, controls []Control) {
	call.Err, call.SearchResult, call.Reply = nil, SearchResult{}, nil
	if err := c.register(call, req, controls); err != nil {
		call.Err = err
		call.Done.CallEnded(call)
	} else if err := c.write(&call.req); err != nil {
		c.fail(err) // a write error is the connection's for good
	}
}

// doneChans are synchronous calls' Done channels, reused once posted on.
var doneChans = sync.Pool{New: func() any { return make(Chan, 1) }}

// do starts req and waits for its call to end.
func (c *Client) do(req Op, controls []Control) *Call {
	done := doneChans.Get().(Chan)
	call := &Call{Done: done}
	c.Start(call, req, controls)
	<-done
	doneChans.Put(done)
	call.Done = nil
	return call
}

// exchange runs a single-reply operation — Start and a wait for its call —
// whose response must be an R.
func exchange[R Op](c *Client, req Op) (resp R, err error) {
	call := c.do(req, nil)
	if call.Err != nil {
		return resp, call.Err
	}
	ok := false
	if call.Reply != nil {
		resp, ok = call.Reply.Op.(R)
	}
	if !ok {
		return resp, fmt.Errorf("ldap: unexpected reply to %T", req)
	}
	return resp, nil
}

// resultOf is a single-reply operation's error: the exchange's, or the
// one its response reports.
func resultOf[R interface{ Err() error }](resp R, err error) error {
	if err != nil {
		return err
	}
	return resp.Err()
}

// Bind performs a simple bind ("" / "" for anonymous).
func (c *Client) Bind(name, password string) error {
	return resultOf(exchange[*BindResponse](c, &BindRequest{Version: 3, Name: name, Password: password}))
}

// BindSASL performs one SASL bind step and returns the server's response,
// which may be in-progress (ResultSaslBindInProgress) with challenge data.
// Callers loop until success or failure; the GSI mechanism uses two steps.
func (c *Client) BindSASL(name, mech string, creds []byte) (*BindResponse, error) {
	return exchange[*BindResponse](c, &BindRequest{Version: 3, Name: name, SASLMech: mech, SASLCreds: creds})
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
// control). Result entries come back
// wire-backed (see Entry): named, but with their attributes left in the
// bytes they arrived in, to be re-emitted as they are or decoded on first
// use. They are immutable snapshots; WithDN renames one, Clone or Select
// copies one. They alias the connection's read chunks (at most 64 KiB
// each), names included: a caller that keeps a few entries of a large
// result for long keeps Clones, or CompactSnapshots the slice. The Timeout
// runs on the client's Clock; a search that outlives it is abandoned.
func (c *Client) SearchWith(req *SearchRequest, controls []Control) (*SearchResult, error) {
	call := c.do(req, controls)
	switch {
	case call.Err != nil:
		return nil, call.Err
	case call.Reply != nil:
		return nil, fmt.Errorf("ldap: unexpected search reply %T", call.Reply.Op)
	}
	return &call.SearchResult, call.Result.Err()
}

// SearchFunc streams a search's entries to entryFn until the search
// completes, ctx ends (which abandons it at the server) or entryFn returns
// an error, and returns that error, ctx's, the connection's, or the one the
// done message reports, as SearchWith does. entryFn is the op's EntryTaker:
// it runs on the client's read loop, so it must not wait for a reply on
// this client. The entries are the immutable wire-backed snapshots
// SearchWith returns, except that each owns its bytes: keeping one keeps
// that entry and nothing else. The client's Timeout does not apply.
//
// With a persistent-search control attached, the server never sends a
// final done message and SearchFunc runs until ctx ends: this is GRIP
// subscription mode.
func (c *Client) SearchFunc(ctx context.Context, req *SearchRequest, controls []Control,
	entryFn func(*Entry, []Control) error) error {

	t := &funcTaker{Chan: make(Chan, 1), fn: entryFn}
	call := &Call{Done: t}
	c.Start(call, req, controls)
	stop := context.AfterFunc(ctx, func() { c.Stop(call, ctx.Err()) })
	<-t.Chan
	stop()
	switch {
	case t.err != nil:
		return t.err
	case call.Reply != nil:
		return fmt.Errorf("ldap: unexpected search reply %T", call.Reply.Op)
	}
	return resultOf(call.Result, call.Err)
}

// funcTaker is SearchFunc's ender: it hands each entry to fn, and posts
// the call on Chan.
type funcTaker struct {
	Chan
	fn  func(*Entry, []Control) error
	err error // fn's, which stopped the op
}

func (t *funcTaker) TakeEntry(e *Entry, controls []Control) bool {
	t.err = t.fn(e, controls)
	return t.err == nil
}

// Add inserts an entry.
func (c *Client) Add(e *Entry) error {
	return resultOf(exchange[*AddResponse](c, &AddRequest{Entry: e}))
}

// Delete removes an entry by DN.
func (c *Client) Delete(dn string) error {
	return resultOf(exchange[*DelResponse](c, &DelRequest{DN: dn}))
}

// Modify applies changes to an entry.
func (c *Client) Modify(dn string, changes []ModifyChange) error {
	return resultOf(exchange[*ModifyResponse](c, &ModifyRequest{DN: dn, Changes: changes}))
}

// Extended invokes an extended operation.
func (c *Client) Extended(oid string, value []byte) (*ExtendedResponse, error) {
	resp, err := exchange[*ExtendedResponse](c, &ExtendedRequest{OID: oid, Value: value})
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}
