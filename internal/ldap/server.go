package ldap

import (
	"bufio"
	"context"
	"errors"
	"log"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/ber"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// SASL bind-in-progress result code (RFC 4511 §4.2.2).
const ResultSaslBindInProgress ResultCode = 14

// ConnState carries per-connection server-side state. A Handler's Bind
// implementation records the authenticated identity here; later operations
// consult it for access control decisions.
type ConnState struct {
	RemoteAddr string
	mu         sync.Mutex
	boundDN    string
	identity   any
}

// SetIdentity records the authenticated peer (bound DN plus an opaque
// credential object such as a *gsi.Credential).
func (c *ConnState) SetIdentity(dn string, identity any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.boundDN, c.identity = dn, identity
}

// BoundDN returns the DN established by the last successful bind
// ("" while anonymous).
func (c *ConnState) BoundDN() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.boundDN
}

// Identity returns the opaque credential recorded at bind time.
func (c *ConnState) Identity() any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.identity
}

// SearchWriter streams search results back to the client. Implementations
// are safe for concurrent use; a persistent search holds one for its
// lifetime and feeds it from change notifications. A served search's writer
// is valid only until its Handler.Search returns: the connection hands it to
// a later search on the same connection, so a goroutine the handler leaves
// running must not send on it (under -tags mdsdebug a retired writer
// panics).
type SearchWriter interface {
	// SendEntry transmits one result entry with optional per-entry controls.
	// The entry may be a shared immutable snapshot — a store's or cache's
	// (Entry.Project), or a wire-backed one a directory is relaying, whose
	// Attrs field is nil: a writer reads it through Attributes (or just
	// encodes it) and never modifies it; Clone or Select to keep a copy.
	SendEntry(e *Entry, controls ...Control) error
	// SendReferral transmits a continuation reference (LDAP URLs).
	SendReferral(urls ...string) error
}

// Request bundles the decoded operation with its envelope controls and a
// context that is cancelled when the operation is abandoned or the
// connection closes. A served Request, its Ctx included, is valid only until
// the handler returns: the connection reuses it for a later operation, so
// anything that outlives the call copies the fields it needs first (under
// -tags mdsdebug a retired Request is poisoned). A goroutine that took
// Ctx.Done() while the handler ran still sees it close when the operation
// ends.
type Request struct {
	Ctx      context.Context
	State    *ConnState
	Controls []Control

	// Span is the server-side span for this operation; handlers hang
	// sub-spans (cache lookups, chain hops) off it. Nil when the request is
	// untraced — all Span methods are no-ops on nil.
	Span *obs.Span
	// TraceID and TraceDepth identify the active trace so handlers that
	// chain to child hops (GIIS) can propagate it via the trace control.
	// TraceID is empty when the request is untraced.
	TraceID    string
	TraceDepth int
}

// Handler implements server-side LDAP semantics. GRIS and GIIS are both
// Handlers plugged into the same protocol engine, mirroring how MDS-2
// implements both as OpenLDAP backends behind one front end (§10.4).
//
// The *Request and the SearchWriter a method is given are the connection's,
// lent for the call: both are valid only until the method returns, after
// which the connection reuses them for another operation. The decoded
// operation (op) and what it holds the method may keep.
type Handler interface {
	Bind(req *Request, op *BindRequest) *BindResponse
	Search(req *Request, op *SearchRequest, w SearchWriter) Result
	Add(req *Request, op *AddRequest) Result
	Delete(req *Request, op *DelRequest) Result
	Modify(req *Request, op *ModifyRequest) Result
	Extended(req *Request, op *ExtendedRequest) *ExtendedResponse
}

// BaseHandler provides refuse-everything defaults so concrete handlers only
// implement the operations they support.
type BaseHandler struct{}

// Bind accepts anonymous binds only.
func (BaseHandler) Bind(_ *Request, op *BindRequest) *BindResponse {
	if op.Name == "" && op.Password == "" && op.SASLMech == "" {
		return &BindResponse{Result: Result{Code: ResultSuccess}}
	}
	return &BindResponse{Result: Result{Code: ResultAuthMethodNotSupported,
		Message: "only anonymous bind supported"}}
}

// Search refuses.
func (BaseHandler) Search(*Request, *SearchRequest, SearchWriter) Result {
	return Result{Code: ResultUnwillingToPerform, Message: "search not supported"}
}

// Add refuses.
func (BaseHandler) Add(*Request, *AddRequest) Result {
	return Result{Code: ResultUnwillingToPerform, Message: "add not supported"}
}

// Delete refuses.
func (BaseHandler) Delete(*Request, *DelRequest) Result {
	return Result{Code: ResultUnwillingToPerform, Message: "delete not supported"}
}

// Modify refuses.
func (BaseHandler) Modify(*Request, *ModifyRequest) Result {
	return Result{Code: ResultUnwillingToPerform, Message: "modify not supported"}
}

// Extended refuses.
func (BaseHandler) Extended(_ *Request, op *ExtendedRequest) *ExtendedResponse {
	return &ExtendedResponse{Result: Result{Code: ResultProtocolError,
		Message: "unsupported extended operation " + op.OID}}
}

// Server is the LDAP protocol engine: it owns connection handling, message
// framing, operation dispatch, and abandon bookkeeping, and delegates
// semantics to a Handler — the same separation the paper credits to the
// OpenLDAP front-end/backend split (§10.1).
type Server struct {
	Handler Handler
	// ErrorLog receives connection-level protocol errors; nil discards them.
	ErrorLog *log.Logger
	// Clock drives per-connection idle-flush ticks (see connWriter); nil
	// means the wall clock. Injectable so FakeClock tests cover the
	// coalescing path deterministically.
	Clock softstate.Clock
	// Obs, when non-nil, receives protocol-engine metrics (in-flight ops,
	// per-op latency, write batch sizes). Set before serving; nil disables
	// collection at zero cost (instruments resolve to nil no-op recorders).
	Obs *obs.Registry
	// Tracer, when non-nil, traces every dispatched operation. Independent
	// of Tracer, a request carrying the trace-request control is always
	// traced and its span tree returned on the final response, so a parent
	// hop (or gridsearch -trace) gets spans from an otherwise untraced
	// server.
	Tracer *obs.Tracer
	// Overload configures admission control and load shedding; the zero
	// value keeps the historical unbounded behavior. Set before serving.
	Overload OverloadConfig

	instOnce sync.Once
	inst     serverInstruments

	admOnce sync.Once
	adm     *admission // nil when Overload admission is disabled

	mu       sync.Mutex
	listener net.Listener
	conns    map[*serverConn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server delegating to h.
func NewServer(h Handler) *Server {
	return &Server{Handler: h, conns: map[*serverConn]struct{}{}}
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("ldap: server closed")

// Serve accepts connections on l until Close is called. With
// Overload.MaxConns set, the accept loop pauses at the connection cap —
// backpressure surfaces to new clients as TCP connect latency instead of
// an accepted-but-starved connection.
func (s *Server) Serve(l net.Listener) error {
	inst := s.instruments() // materialize registry series before the first connection
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	var connSem chan struct{}
	if s.Overload.MaxConns > 0 {
		connSem = make(chan struct{}, s.Overload.MaxConns)
	}
	for {
		if connSem != nil {
			select {
			case connSem <- struct{}{}:
			default:
				// At the cap: wait for a connection to finish. Close tears
				// down every live connection, so this cannot deadlock a
				// shutdown.
				inst.backpressure.Inc()
				connSem <- struct{}{}
			}
		}
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		sc := s.newConn(conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		// Add while still holding mu: Close sets closed and calls wg.Wait
		// under the same lock discipline, so Add can never race the Wait.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sc.serve()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
			if connSem != nil {
				<-connSem
			}
		}()
	}
}

// ServeConn handles a single pre-established connection (used with
// net.Pipe-based simulated transports) and returns when it closes.
func (s *Server) ServeConn(conn net.Conn) {
	sc := s.newConn(conn)
	s.mu.Lock()
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	sc.serve()
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Close stops accepting and tears down all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for sc := range s.conns {
		sc.conn.Close()
	}
	s.mu.Unlock()
	s.admission().close() // fail queued ops so their goroutines drain
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

// serverInstruments are the protocol engine's registry-backed instruments,
// resolved once per server. With no Obs registry every pointer is nil — a
// no-op recorder — and enabled gates the clock reads, so the disabled path
// adds one branch and zero allocations.
type serverInstruments struct {
	enabled  bool
	inflight *obs.Gauge
	opDur    [6]*obs.Histogram // indexed by opKind
	batch    *obs.Histogram

	// Overload-control series (all no-ops without a registry).
	queueDepth      *obs.Gauge     // ops waiting for a worker slot
	queueWait       *obs.Histogram // measured admission-queue wait
	shedBusy        *obs.Counter   // shed: projected wait over budget
	shedUnavailable *obs.Counter   // shed: admission queue full
	throttled       *obs.Counter   // shed: per-client rate limit
	backpressure    *obs.Counter   // accept loop stalled on MaxConns
}

type opKind int

const (
	opBind opKind = iota
	opSearch
	opAdd
	opDelete
	opModify
	opExtended
)

var opKindNames = [6]string{"bind", "search", "add", "delete", "modify", "extended"}

func (s *Server) instruments() *serverInstruments {
	s.instOnce.Do(func() {
		r := s.Obs // nil registry hands out nil (no-op) instruments
		s.inst.enabled = r != nil
		s.inst.inflight = r.Gauge("ldap_inflight_ops")
		for k, name := range opKindNames {
			s.inst.opDur[k] = r.Histogram("ldap_" + name + "_duration_ns")
		}
		s.inst.batch = r.Histogram("ldap_write_batch_bytes")
		s.inst.queueDepth = r.Gauge("ldap_admission_queue_depth")
		s.inst.queueWait = r.Histogram("ldap_admission_queue_wait_ns")
		s.inst.shedBusy = r.Counter("ldap_shed_busy_total")
		s.inst.shedUnavailable = r.Counter("ldap_shed_unavailable_total")
		s.inst.throttled = r.Counter("ldap_throttled_total")
		s.inst.backpressure = r.Counter("ldap_accept_backpressure_total")
	})
	return &s.inst
}

// admission lazily builds the overload controller (nil when disabled).
func (s *Server) admission() *admission {
	s.admOnce.Do(func() {
		if s.Overload.enabled() || s.Overload.ClientRate > 0 {
			s.adm = newAdmission(s.Overload, s.Clock, s.instruments())
		}
	})
	return s.adm
}

type serverConn struct {
	srv   *Server
	conn  net.Conn
	state *ConnState
	clock softstate.Clock
	inst  *serverInstruments
	w     *connWriter // coalesces outbound messages onto the wire

	// opMu guards ops, free and every cancellation of an op's context.
	opMu sync.Mutex
	ops  map[int64]*opState // in-flight, abandonable operations
	free []*opState         // retired ops' states, for reuse (at most maxFreeOps)

	// bind is the Request a bind is served with: binds run one at a time on
	// the read loop.
	bind Request

	// idle hands an operation to the connection's parked dispatch worker,
	// if it has one. parked says a worker has committed to receiving on
	// idle; the read loop claims it by clearing the flag, then sends.
	idle   chan admittedOp
	parked atomic.Bool
}

func (s *Server) newConn(conn net.Conn) *serverConn {
	addr := ""
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	clock := s.Clock
	if clock == nil {
		clock = softstate.RealClock{}
	}
	inst := s.instruments()
	return &serverConn{
		srv:   s,
		conn:  conn,
		state: &ConnState{RemoteAddr: addr},
		clock: clock,
		inst:  inst,
		w:     newConnWriter(conn, s.Clock, inst.batch),
		ops:   map[int64]*opState{},
		idle:  make(chan admittedOp),
	}
}

func (c *serverConn) serve() {
	root, cancelAll := context.WithCancel(context.Background())
	var opWG sync.WaitGroup
	defer func() {
		// Order matters: close the transport, cancel every in-flight
		// operation (persistent searches block on their context) and the
		// idle worker's wait, and only then wait for the dispatch workers to
		// drain, then stop the write coalescer. The read loop registered
		// every op there is, so each one is cancelled here or retires first.
		c.conn.Close()
		c.opMu.Lock()
		for _, st := range c.ops {
			st.ctx.cancel()
		}
		c.opMu.Unlock()
		cancelAll()
		opWG.Wait()
		c.w.close()
	}()
	// Requests frame into one reused buffer, and nothing that leaves the loop
	// aliases it, so each ReadFrame may recycle the previous frame. A search
	// lives in an exact-size copy of its frame. Any other request copies each
	// string it keeps: a GRRP Add's values are kept for as long as the
	// registration lives, and views would pin its whole frame.
	r := bufio.NewReaderSize(c.conn, 4<<10)
	var frame []byte
	for {
		var err error
		if frame, err = ber.ReadFrame(r, frame); err != nil {
			return // EOF or connection failure
		}
		msg, err := scanMessage(frame, true)
		if err != nil {
			c.srv.logf("ldap: %s: %v", c.state.RemoteAddr, err)
			return
		}
		adm := c.srv.admission()
		switch op := msg.Op.(type) {
		case *UnbindRequest:
			return
		case *AbandonRequest:
			c.abandon(op.IDToAbandon)
		case *BindRequest:
			// Binds are serialized on the connection per RFC 4511 §4.2.1.
			// They never enter the admission queue (that would stall the
			// read loop) but do count against the client's rate.
			if adm.throttled(clientHost(c.state.RemoteAddr)) {
				c.send(msg.ID, shedReply(msg.Op, shedResult(nil)))
				continue
			}
			var start time.Time
			if c.inst.enabled {
				start = c.clock.Now()
			}
			c.bind = Request{Ctx: root, State: c.state, Controls: msg.Controls}
			resp := c.srv.Handler.Bind(&c.bind, op)
			retireRequest(&c.bind)
			if c.inst.enabled {
				c.inst.opDur[opBind].Observe(c.clock.Now().Sub(start))
			}
			c.send(msg.ID, resp)
		default:
			// Overload control happens here, synchronously on the read
			// loop: per-client throttling first, then admission. A shed
			// operation costs one response message — never a goroutine, a
			// worker slot, or unbounded queue residency. Persistent
			// searches bypass the worker queue (they are subscriptions
			// that park for hours; holding a slot would starve the server)
			// but still count against the client rate.
			var ticket *admitTicket
			holdsSlot := false
			if adm != nil {
				if adm.throttled(clientHost(c.state.RemoteAddr)) {
					if reply := shedReply(msg.Op, shedResult(nil)); reply != nil {
						c.send(msg.ID, reply)
					}
					continue
				}
				if adm.cfg.enabled() && !isPersistentSearch(msg) {
					var shedErr error
					ticket, shedErr = adm.tryAcquire()
					if shedErr != nil {
						if reply := shedReply(msg.Op, shedResult(shedErr)); reply != nil {
							c.send(msg.ID, reply)
						}
						continue
					}
					holdsSlot = true
				}
			}
			// A trace starts here — minted locally when a Tracer is
			// configured, or joined when the request carries the
			// trace-request control from a parent hop. The queue span covers
			// the handoff from the read loop to the dispatch goroutine,
			// including any admission-queue wait.
			tr := c.beginTrace(msg)
			queued := tr.Root().Child("queue")
			c.hand(admittedOp{msg: msg, st: c.register(msg.ID), ticket: ticket, holdsSlot: holdsSlot,
				tr: tr, queued: queued}, root, &opWG)
		}
	}
}

// admittedOp is one admitted operation on its way to a dispatch worker.
type admittedOp struct {
	msg       *Message
	st        *opState     // registered under msg.ID until the op retires
	ticket    *admitTicket // non-nil: queued for a worker slot
	holdsSlot bool         // release the admission slot when done
	tr        *obs.Trace
	queued    *obs.Span
}

// hand gives op to the connection's idle dispatch worker, or to a new one
// when every worker is busy — so a connection keeps as many dispatch
// goroutines as it has operations in flight (pipelined searches, parked
// persistent searches, ops waiting in the admission queue) and no more,
// without starting one per operation. A claimed worker is committed to its
// receive, and root ends only after the read loop (the caller) returns.
func (c *serverConn) hand(op admittedOp, root context.Context, wg *sync.WaitGroup) {
	if c.parked.CompareAndSwap(true, false) {
		c.idle <- op
		return
	}
	wg.Add(1)
	go c.worker(op, root, wg)
}

// worker runs operations until it finds another worker idle or the
// connection closes: between operations it parks as the connection's one
// idle worker, so at most one per connection waits and a burst's extra
// workers exit as they finish.
func (c *serverConn) worker(op admittedOp, root context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		c.run(op)
		if root.Err() != nil || !c.parked.CompareAndSwap(false, true) {
			return
		}
		select {
		case op = <-c.idle:
		case <-root.Done():
			return
		}
	}
}

// run carries one operation from the admission queue through dispatch, and
// retires it.
func (c *serverConn) run(op admittedOp) {
	defer c.retire(op.msg.ID, op.st)
	adm := c.srv.admission()
	if op.ticket != nil {
		// Queued behind the worker set: wait for a slot off the read loop.
		// Cancellation (abandon, connection close, server shutdown) drops the
		// op without a response — the requester is gone or going.
		if err := op.ticket.wait(adm, op.st.ctx.Done()); err != nil {
			op.queued.End()
			return
		}
	}
	if op.holdsSlot {
		admitted := c.clock.Now()
		defer func() {
			adm.release(c.clock.Now().Sub(admitted))
		}()
	}
	op.queued.End()
	c.dispatch(op.st, op.msg, op.tr)
}

// beginTrace starts (or joins) a trace for one dispatched operation.
// Returns nil — tracing fully off for this request — unless the server has
// a Tracer or the request carries a trace-request control.
func (c *serverConn) beginTrace(msg *Message) *obs.Trace {
	var id string
	depth := 0
	if ctl, ok := FindControl(msg.Controls, obs.OIDTraceRequest); ok {
		if tid, d, err := obs.DecodeTraceRequest(ctl.Value); err == nil {
			id, depth = tid, d
		}
	}
	if c.srv.Tracer == nil && id == "" {
		return nil
	}
	return obs.Begin(c.clock, c.srv.Tracer, opName(msg.Op), c.state.RemoteAddr, id, depth)
}

// isPersistentSearch reports whether msg is a search carrying the
// persistent-search control — a long-lived subscription, exempt from
// worker-slot admission.
func isPersistentSearch(msg *Message) bool {
	if _, ok := msg.Op.(*SearchRequest); !ok {
		return false
	}
	_, ok := FindControl(msg.Controls, OIDPersistentSearch)
	return ok
}

func opName(op Op) string {
	switch op.(type) {
	case *SearchRequest:
		return "search"
	case *AddRequest:
		return "add"
	case *DelRequest:
		return "delete"
	case *ModifyRequest:
		return "modify"
	case *ExtendedRequest:
		return "extended"
	}
	return "other"
}

// dispatch runs msg's handler with st's Request (and, for a search, st's
// writer) and sends its reply; a search's done reply is st's as well. The
// connection writer encodes a message before enqueue returns and keeps
// nothing of it, so none of st is reachable once dispatch returns.
func (c *serverConn) dispatch(st *opState, msg *Message, tr *obs.Trace) {
	req := &st.req
	*req = Request{Ctx: &st.ctx, State: c.state, Controls: msg.Controls}
	if tr != nil {
		req.Span = tr.Root()
		req.TraceID = tr.ID
		req.TraceDepth = tr.Depth
	}
	kind := opSearch
	var start time.Time
	if c.inst.enabled {
		start = c.clock.Now()
		c.inst.inflight.Inc()
		defer c.inst.inflight.Dec()
	}
	var w *connSearchWriter
	var reply Op
	switch op := msg.Op.(type) {
	case *SearchRequest:
		w = &st.w
		*w = connSearchWriter{conn: c, id: msg.ID, track: tr != nil}
		if why := searchRangeError(op); why != "" {
			st.done = SearchResultDone{Result: Result{Code: ResultProtocolError, Message: why}}
		} else {
			st.done = SearchResultDone{Result: c.srv.Handler.Search(req, op, w)}
		}
		reply = &st.done
	case *AddRequest:
		kind = opAdd
		reply = &AddResponse{Result: c.srv.Handler.Add(req, op)}
	case *DelRequest:
		kind = opDelete
		reply = &DelResponse{Result: c.srv.Handler.Delete(req, op)}
	case *ModifyRequest:
		kind = opModify
		reply = &ModifyResponse{Result: c.srv.Handler.Modify(req, op)}
	case *ExtendedRequest:
		kind = opExtended
		reply = c.srv.Handler.Extended(req, op)
	default:
		c.srv.logf("ldap: %s: unexpected operation %T", c.state.RemoteAddr, msg.Op)
		return
	}
	if c.inst.enabled {
		c.inst.opDur[kind].Observe(c.clock.Now().Sub(start))
	}
	var ctls []Control
	if tr != nil {
		if w != nil {
			if n := w.entries.Load(); n > 0 {
				tr.Root().AddTimed("encode+write", time.Duration(w.encodeNs.Load()),
					strconv.FormatInt(n, 10)+" entries")
			}
		}
		tr.Finish()
		// The span tree rides back on the final response only when the
		// requester asked for it: parent hops and gridsearch -trace send the
		// trace-request control, plain clients never see the extra bytes.
		if _, ok := FindControl(msg.Controls, obs.OIDTraceRequest); ok {
			ctls = append(ctls, Control{OID: obs.OIDTraceSpans, Value: obs.EncodeSpans(tr.Export())})
		}
	}
	st.reply = Message{ID: msg.ID, Op: reply, Controls: ctls}
	c.w.enqueue(&st.reply, true)
}

// searchRangeError names what RFC 4511 §4.5.1 puts out of range in a search
// — scope is ENUMERATED {0, 1, 2}, the size and time limits INTEGER
// (0..maxInt) — or returns "". The scanner checks the language, not
// values, so the dispatch does, for every handler: a store would answer such
// a search with an empty success, and a directory would chain it to every
// child.
func searchRangeError(op *SearchRequest) string {
	switch {
	case op.Scope < ScopeBaseObject || op.Scope > ScopeWholeSubtree:
		return "search scope " + strconv.FormatInt(int64(op.Scope), 10) + " out of range"
	case op.SizeLimit < 0:
		return "negative search size limit"
	case op.TimeLimit < 0:
		return "negative search time limit"
	}
	return ""
}

// abandon cancels the op registered under id, if there is one. Under opMu
// it either finds the op before the op retires, which then never reuses its
// state, or finds nothing: it cannot reach a later op that reuses the state.
func (c *serverConn) abandon(id int64) {
	c.opMu.Lock()
	if st := c.ops[id]; st != nil {
		st.ctx.cancel()
	}
	c.opMu.Unlock()
}

// maxFreeOps bounds the retired op states a connection keeps: a client
// pipelining deeper than this makes the rest afresh, and a burst leaves no
// more than this behind.
const maxFreeOps = 8

// opState is one served operation's bookkeeping: its Request, context,
// search writer and done reply, reused by the connection's later operations
// once it retires (DESIGN §9.3).
type opState struct {
	ctx   opCtx
	req   Request
	w     connSearchWriter
	done  SearchResultDone
	reply Message // the envelope of the op's final reply
}

// register makes an op state routable under id for abandon, reusing a
// retired one when the connection has one. A request reusing the ID of one
// still outstanding (RFC 4511 §4.1.1.1 forbids it) takes the ID over, and the
// older op, which nothing could abandon any more, is cancelled.
func (c *serverConn) register(id int64) *opState {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	var st *opState
	if n := len(c.free); n > 0 {
		st = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		st = &opState{}
	}
	if old := c.ops[id]; old != nil {
		old.ctx.cancel()
	}
	c.ops[id] = st
	return st
}

// retire ends the op registered under id once its reply is queued: the op
// leaves the table and, unless its context was cancelled or anyone took its
// Done channel (which now closes), its state is kept for reuse.
func (c *serverConn) retire(id int64, st *opState) {
	retireRequest(&st.req)
	st.w.san.retire()
	c.opMu.Lock()
	if c.ops[id] == st {
		delete(c.ops, id)
	}
	if st.ctx.end() && len(c.free) < maxFreeOps {
		st.done, st.reply = SearchResultDone{}, Message{}
		c.free = append(c.free, st)
	}
	c.opMu.Unlock()
}

// opCtx is a served operation's context. Its Done channel is made only when
// someone asks for it — an admission-queue wait, a persistent search's
// loop — so an op nobody waits on costs no channel, and
// its state can be reused. It is cancelled under the connection's opMu, by
// abandon, by the connection closing, by a newer op taking its ID, or by its
// retirement when its Done channel was taken. Like the connection root it
// stands in for, it carries no values and no deadline.
type opCtx struct {
	mu  sync.Mutex
	ch  chan struct{} // made by the first Done
	err error         // context.Canceled once cancelled
}

func (x *opCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

func (x *opCtx) Value(any) any { return nil }

func (x *opCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.ch == nil {
		x.ch = make(chan struct{})
		if x.err != nil {
			close(x.ch)
		}
	}
	return x.ch
}

func (x *opCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// cancel ends the context. Caller holds the connection's opMu.
func (x *opCtx) cancel() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.cancelLocked()
}

func (x *opCtx) cancelLocked() {
	if x.err == nil {
		x.err = context.Canceled
		if x.ch != nil {
			close(x.ch)
		}
	}
}

// end retires the context and reports whether it can serve another op: it
// was never cancelled and no one took its Done channel. A context whose
// channel was taken is cancelled instead, so whoever waits on it sees the op
// end. Caller holds the connection's opMu.
func (x *opCtx) end() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err == nil && x.ch == nil {
		return true
	}
	x.cancelLocked()
	return false
}

// send transmits a response message and flushes: results, done messages,
// and bind outcomes are all latency-sensitive.
func (c *serverConn) send(id int64, op Op, controls ...Control) error {
	return c.w.enqueue(&Message{ID: id, Op: op, Controls: controls}, true)
}

type connSearchWriter struct {
	conn *serverConn
	id   int64
	san  writerSan // mdsdebug: panics on a send after the op retired
	// track turns on encode/write accounting for traced searches; when
	// false (the common case) SendEntry takes the untimed path — no clock
	// reads, no atomics, no allocations beyond the send itself.
	track    bool
	entries  atomic.Int64
	encodeNs atomic.Int64
}

// SendEntry streams one result entry. Plain streamed entries buffer in the
// connection's coalescing writer (the done message or the size threshold
// flushes the batch); entries carrying per-entry controls are
// persistent-search notifications, which must reach the subscriber now —
// there may be no further traffic on this search for hours. The entry is
// encoded straight into the connection's pending buffer.
func (w *connSearchWriter) SendEntry(e *Entry, controls ...Control) error {
	return w.sendProjected(e, nil, controls)
}

// sendProjected is SendEntry(e.Project(attrs), controls...), with the
// projection made by the encoder (appendProjectedEntry) instead of an Entry.
func (w *connSearchWriter) sendProjected(e *Entry, attrs []string, controls []Control) error {
	w.san.check()
	flush := len(controls) > 0
	if !w.track {
		return w.conn.w.enqueueEntry(w.id, e, attrs, controls, flush)
	}
	start := w.conn.clock.Now()
	err := w.conn.w.enqueueEntry(w.id, e, attrs, controls, flush)
	w.encodeNs.Add(int64(w.conn.clock.Now().Sub(start)))
	w.entries.Add(1)
	return err
}

// SendProjected sends e restricted to the requested attributes on w — what
// w.SendEntry(e.Project(attrs), controls...) sends. A connection's own
// writer encodes the projection straight from e, which costs no Entry and no
// attribute slice per result; any other SearchWriter gets e.Project(attrs).
// e may be a shared snapshot: neither path writes it.
func SendProjected(w SearchWriter, e *Entry, attrs []string, controls ...Control) error {
	if cw, ok := w.(*connSearchWriter); ok {
		return cw.sendProjected(e, attrs, controls)
	}
	return w.SendEntry(e.Project(attrs), controls...)
}

func (w *connSearchWriter) SendReferral(urls ...string) error {
	w.san.check()
	return w.conn.w.enqueue(&Message{ID: w.id,
		Op: &SearchResultReference{URLs: urls}}, false)
}

// ListenAndServe listens on a TCP address and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listener address, if serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}
