package ldap

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"mds2/internal/obs"
	"mds2/internal/softstate"
)

func testAdmission(cfg OverloadConfig, clock softstate.Clock) *admission {
	return newAdmission(cfg, clock, nil)
}

func TestAdmissionImmediateThenQueueThenShed(t *testing.T) {
	a := testAdmission(OverloadConfig{MaxWorkers: 2, MaxQueue: 1}, softstate.NewFakeClock())

	for i := 0; i < 2; i++ {
		ticket, err := a.tryAcquire()
		if ticket != nil || err != nil {
			t.Fatalf("acquire %d: ticket=%v err=%v, want immediate admit", i, ticket, err)
		}
	}
	ticket, err := a.tryAcquire()
	if ticket == nil || err != nil {
		t.Fatalf("third acquire: ticket=%v err=%v, want queued", ticket, err)
	}
	if _, err := a.tryAcquire(); err != ErrShedQueueFull {
		t.Fatalf("fourth acquire err = %v, want ErrShedQueueFull", err)
	}
}

func TestAdmissionShedOnProjectedBudget(t *testing.T) {
	a := testAdmission(OverloadConfig{
		MaxWorkers: 2, MaxQueue: 100, QueueBudget: 10 * time.Millisecond,
	}, softstate.NewFakeClock())
	a.seedEWMA(8 * time.Millisecond)

	// Fill the worker slots.
	for i := 0; i < 2; i++ {
		if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
			t.Fatalf("worker fill %d: %v %v", i, ticket, err)
		}
	}
	// Arrivals at queue depth 0 and 1 project (0+1)*8ms/2 = 4ms and
	// (1+1)*8ms/2 = 8ms, both within the 10ms budget: queued.
	for i := 0; i < 2; i++ {
		if ticket, err := a.tryAcquire(); ticket == nil || err != nil {
			t.Fatalf("queued op %d: ticket=%v err=%v", i, ticket, err)
		}
	}
	// Depth 2: projected (2+1)*8ms/2 = 12ms > 10ms: shed busy.
	if _, err := a.tryAcquire(); err != ErrShedBudget {
		t.Fatalf("over-budget acquire err = %v, want ErrShedBudget", err)
	}
	if got := shedResult(ErrShedBudget).Code; got != ResultBusy {
		t.Fatalf("budget shed code = %v, want busy", got)
	}
	if got := shedResult(ErrShedQueueFull).Code; got != ResultUnavailable {
		t.Fatalf("queue-full shed code = %v, want unavailable", got)
	}
}

func TestAdmissionFIFOFairness(t *testing.T) {
	a := testAdmission(OverloadConfig{MaxWorkers: 1, MaxQueue: 8}, softstate.NewFakeClock())
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("worker fill: %v %v", ticket, err)
	}
	var tickets []*admitTicket
	for i := 0; i < 3; i++ {
		ticket, err := a.tryAcquire()
		if ticket == nil || err != nil {
			t.Fatalf("queue %d: %v %v", i, ticket, err)
		}
		tickets = append(tickets, ticket)
	}
	// Each release must grant exactly the head of the line.
	for i := range tickets {
		a.release(time.Millisecond)
		select {
		case err := <-tickets[i].granted:
			if err != nil {
				t.Fatalf("ticket %d granted err: %v", i, err)
			}
		default:
			t.Fatalf("release %d did not grant ticket %d", i, i)
		}
		for j := i + 1; j < len(tickets); j++ {
			select {
			case <-tickets[j].granted:
				t.Fatalf("release %d granted ticket %d out of order", i, j)
			default:
			}
		}
	}
}

func TestAdmissionDrainOnClose(t *testing.T) {
	a := testAdmission(OverloadConfig{MaxWorkers: 1, MaxQueue: 8}, softstate.NewFakeClock())
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("worker fill: %v %v", ticket, err)
	}
	var waitErrs []error
	var mu sync.Mutex
	var wg sync.WaitGroup
	never := make(chan struct{})
	for i := 0; i < 3; i++ {
		ticket, err := a.tryAcquire()
		if ticket == nil || err != nil {
			t.Fatalf("queue %d: %v %v", i, ticket, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := ticket.wait(a, never)
			mu.Lock()
			waitErrs = append(waitErrs, err)
			mu.Unlock()
		}()
	}
	a.close()
	wg.Wait()
	if len(waitErrs) != 3 {
		t.Fatalf("drained %d waiters, want 3", len(waitErrs))
	}
	for _, err := range waitErrs {
		if err != ErrAdmissionClosed {
			t.Fatalf("drained waiter err = %v, want ErrAdmissionClosed", err)
		}
	}
	if _, err := a.tryAcquire(); err != ErrAdmissionClosed {
		t.Fatalf("post-close acquire err = %v, want ErrAdmissionClosed", err)
	}
}

func TestAdmissionCancelWhileQueuedReleasesNothing(t *testing.T) {
	a := testAdmission(OverloadConfig{MaxWorkers: 1, MaxQueue: 8}, softstate.NewFakeClock())
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("worker fill: %v %v", ticket, err)
	}
	ticket, err := a.tryAcquire()
	if ticket == nil || err != nil {
		t.Fatalf("queue: %v %v", ticket, err)
	}
	cancelled := make(chan struct{})
	close(cancelled)
	if err := ticket.wait(a, cancelled); err == nil {
		t.Fatal("cancelled wait returned nil")
	}
	// The cancelled ticket must not absorb the slot: releasing the running
	// op must leave a free worker for the next arrival.
	a.release(time.Millisecond)
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("post-cancel acquire: ticket=%v err=%v, want immediate admit", ticket, err)
	}
}

func TestAdmissionEWMATracksService(t *testing.T) {
	a := testAdmission(OverloadConfig{MaxWorkers: 1, MaxQueue: 1}, softstate.NewFakeClock())
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("fill: %v %v", ticket, err)
	}
	a.release(10 * time.Millisecond) // first observation seeds directly
	if got := a.ewma(); got != 10*time.Millisecond {
		t.Fatalf("ewma after seed = %v, want 10ms", got)
	}
	if ticket, err := a.tryAcquire(); ticket != nil || err != nil {
		t.Fatalf("refill: %v %v", ticket, err)
	}
	a.release(90 * time.Millisecond) // 10ms + (90ms-10ms)/8 = 20ms
	if got := a.ewma(); got != 20*time.Millisecond {
		t.Fatalf("ewma after update = %v, want 20ms", got)
	}
}

func TestTokenBucketThrottle(t *testing.T) {
	clock := softstate.NewFakeClock()
	a := testAdmission(OverloadConfig{ClientRate: 2, ClientBurst: 2}, clock)

	for i := 0; i < 2; i++ {
		if a.throttled("10.0.0.1") {
			t.Fatalf("op %d throttled within burst", i)
		}
	}
	if !a.throttled("10.0.0.1") {
		t.Fatal("op over burst not throttled")
	}
	if a.throttled("10.0.0.2") {
		t.Fatal("distinct client shares a bucket")
	}
	clock.Advance(time.Second) // refills 2 tokens
	for i := 0; i < 2; i++ {
		if a.throttled("10.0.0.1") {
			t.Fatalf("op %d throttled after refill", i)
		}
	}
	if !a.throttled("10.0.0.1") {
		t.Fatal("bucket did not re-empty")
	}
}

func TestClientHost(t *testing.T) {
	for _, tc := range []struct{ addr, want string }{
		{"10.1.2.3:4567", "10.1.2.3"},
		{"[::1]:4567", "[::1]"},
		{"[::1]", "[::1]"},
		{"pipe", "pipe"},
		{"", ""},
	} {
		if got := clientHost(tc.addr); got != tc.want {
			t.Errorf("clientHost(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// gateHandler parks every search until released, so tests control exactly
// how many operations are in flight.
type gateHandler struct {
	BaseHandler
	gate chan struct{}
}

func (h *gateHandler) Search(req *Request, _ *SearchRequest, _ SearchWriter) Result {
	select {
	case <-h.gate:
		return Result{Code: ResultSuccess}
	case <-req.Ctx.Done():
		return Result{Code: ResultUnavailable, Message: "cancelled"}
	}
}

// TestServerShedsUnderOverload drives more concurrent searches than
// MaxWorkers+MaxQueue at a server with overload control and verifies the
// excess is shed with busy/unavailable while admitted ops complete, with
// the shed accounting visible in the registry.
func TestServerShedsUnderOverload(t *testing.T) {
	reg := obs.NewRegistry()
	h := &gateHandler{gate: make(chan struct{})}
	srv := NewServer(h)
	srv.Obs = reg
	srv.Overload = OverloadConfig{MaxWorkers: 2, MaxQueue: 2}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const total = 10
	results := make(chan error, total)
	for i := 0; i < total; i++ {
		go func() {
			_, err := c.Search(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
				Filter: MustParseFilter("(objectclass=*)")})
			results <- err
		}()
	}
	// 2 admitted + 2 queued; the other 6 must shed promptly.
	shed := 0
	for shed < total-4 {
		err := <-results
		if !IsCode(err, ResultUnavailable) && !IsCode(err, ResultBusy) {
			t.Fatalf("expected shed result, got %v", err)
		}
		shed++
	}
	close(h.gate) // let the admitted + queued ops finish
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted op failed: %v", err)
		}
	}
	if got := reg.Counter("ldap_shed_unavailable_total").Value(); got != int64(shed) {
		t.Errorf("shed_unavailable = %d, want %d", got, shed)
	}
	if got := reg.Gauge("ldap_admission_queue_depth").Value(); got != 0 {
		t.Errorf("queue depth after drain = %d, want 0", got)
	}
}

// TestServerThrottlesPerClient verifies the token bucket sheds over-rate
// operations with busy.
func TestServerThrottlesPerClient(t *testing.T) {
	store := newStoreHandler()
	srv := NewServer(store)
	srv.Overload = OverloadConfig{ClientRate: 0.001, ClientBurst: 2}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	search := func() error {
		_, err := c.Search(&SearchRequest{BaseDN: "", Scope: ScopeBaseObject,
			Filter: MustParseFilter("(objectclass=*)")})
		return err
	}
	for i := 0; i < 2; i++ {
		if err := search(); err != nil {
			t.Fatalf("in-burst search %d: %v", i, err)
		}
	}
	if err := search(); !IsCode(err, ResultBusy) {
		t.Fatalf("over-rate search err = %v, want busy", err)
	}
	// Binds are throttled too.
	if err := c.Bind("", ""); !IsCode(err, ResultBusy) {
		t.Fatalf("over-rate bind err = %v, want busy", err)
	}
}

// TestPersistentSearchBypassesAdmission pins the subscription exemption: a
// parked persistent search must not consume a worker slot.
func TestPersistentSearchBypassesAdmission(t *testing.T) {
	store := newStoreHandler()
	srv := NewServer(store)
	srv.Overload = OverloadConfig{MaxWorkers: 1, MaxQueue: 0}
	a, b := net.Pipe()
	go srv.ServeConn(a)
	defer srv.Close()
	c := NewClient(b)
	defer c.Close()

	if err := store.Put(NewEntry(MustParseDN("o=grid")).Add("objectclass", "top")); err != nil {
		t.Fatal(err)
	}
	// Park a persistent search.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	go func() {
		close(started)
		_ = c.SearchFunc(ctx, &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=*)")},
			[]Control{NewPersistentSearchControl(PersistentSearch{
				ChangeTypes: ChangeAll, ChangesOnly: true})},
			func(*Entry, []Control) error { return nil })
	}()
	<-started
	// The lone worker slot must still be free: a plain search completes.
	done := make(chan error, 1)
	go func() {
		_, err := c.Search(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=*)")})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("plain search alongside subscription: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("plain search starved by persistent search")
	}
}
