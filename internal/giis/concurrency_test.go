package giis

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/simnet"
	"mds2/internal/softstate"
)

// concGauge tracks how many searches are in flight across ALL children of a
// rig, and the peak that number ever reached — the observable effect of the
// fan-out bound.
type concGauge struct {
	running atomic.Int64
	peak    atomic.Int64
}

func (g *concGauge) enter() {
	n := g.running.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (g *concGauge) exit() { g.running.Add(-1) }

// laggyChild is a minimal information provider whose Search sleeps for a
// configurable delay before answering — the slow or half-partitioned child
// the hedge deadline is designed to cut off.
type laggyChild struct {
	ldap.BaseHandler
	name   string
	suffix ldap.DN
	delay  time.Duration
	gauge  *concGauge
}

func (h *laggyChild) Search(req *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	if h.gauge != nil {
		h.gauge.enter()
		defer h.gauge.exit()
	}
	if h.delay > 0 {
		select {
		case <-time.After(h.delay):
		case <-req.Ctx.Done():
			return ldap.Result{Code: ldap.ResultUnavailable, Message: "abandoned"}
		}
	}
	e := ldap.NewEntry(h.suffix).
		Add("objectclass", "computer").
		Add("hn", h.name)
	if op.Filter == nil || op.Filter.Matches(e) {
		if err := w.SendEntry(e.Select(op.Attributes)); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// chainingStrategies names each preset that fetches: the engine's bound,
// hedge and pool-safety guarantees must hold whatever the plan's hops do.
// The sharded entry is a one-member ring, so every child is local and the
// fan-out is the whole search.
var chainingStrategies = []fetchingPreset{
	{"chaining", "chain"},
	{"cached-index", "cache"},
	{"bloom-routed", "bloom"},
	{"sharded", "sharded"},
}

type fetchingPreset struct{ name, preset string }

// build makes the preset with fan-out f.
func (p fetchingPreset) build(f Fanout) *Strategy {
	c := soloRing
	c.CacheTTL, c.Fanout = time.Hour, f
	return preset(p.preset, c)
}

// fanoutRig is a wall-clock grid for concurrency tests and benchmarks:
// `fast` instant children plus `slow` children delayed by slowDelay, all
// registered with one chaining GIIS.
type fanoutRig struct {
	giis     *Server
	gauge    concGauge
	children []*laggyChild
}

func newFanoutRig(t testing.TB, strategy *Strategy, fast, slow int, slowDelay time.Duration) *fanoutRig {
	t.Helper()
	network := simnet.New(1)
	g := New(Config{
		Name:     "giis.vo",
		Suffix:   ldap.MustParseDN("vo=v"),
		SelfURL:  ldap.MustParseURL("sim://giis-node:389"),
		Clock:    softstate.RealClock{},
		Strategy: strategy,
		Dial: func(url ldap.URL) (*ldap.Client, error) {
			conn, err := network.Dial("giis-node", url.Address())
			if err != nil {
				return nil, err
			}
			return ldap.NewClient(conn), nil
		},
	})
	t.Cleanup(g.Close)
	rig := &fanoutRig{giis: g}
	addChild := func(i int, delay time.Duration) {
		name := fmt.Sprintf("h%03d", i)
		suffix := ldap.MustParseDN("hn=" + name + ", o=c")
		child := &laggyChild{name: name, suffix: suffix, delay: delay, gauge: &rig.gauge}
		srv := ldap.NewServer(child)
		l, err := network.Listen(name+"-node", "389")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		now := time.Now()
		if !g.Ingest(&grrp.Message{
			Type:       grrp.TypeRegister,
			ServiceURL: fmt.Sprintf("sim://%s-node:389", name),
			MDSType:    "gris",
			SuffixDN:   suffix.String(),
			IssuedAt:   now,
			ValidUntil: now.Add(time.Hour),
		}) {
			t.Fatalf("registration for %s refused", name)
		}
		rig.children = append(rig.children, child)
	}
	for i := 0; i < fast; i++ {
		addChild(i, 0)
	}
	for i := 0; i < slow; i++ {
		addChild(fast+i, slowDelay)
	}
	return rig
}

func (r *fanoutRig) search(tb testing.TB) ([]*ldap.Entry, ldap.Result) {
	tb.Helper()
	w := &sink{}
	res := r.giis.Search(
		&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
		&ldap.SearchRequest{BaseDN: "vo=v", Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.MustParseFilter("(objectclass=computer)")}, w)
	return w.entries, res
}

// TestHedgeDeadlineBoundsSlowChild: with one child delayed far past the
// hedge deadline, the search returns the fast children's entries within
// roughly the deadline and flags the result partial.
func TestHedgeDeadlineBoundsSlowChild(t *testing.T) {
	const (
		fast  = 4
		hedge = 100 * time.Millisecond
		delay = 2 * time.Second
	)
	for _, tc := range chainingStrategies {
		t.Run(tc.name, func(t *testing.T) {
			r := newFanoutRig(t, tc.build(Fanout{HedgeDeadline: hedge}), fast, 1, delay)
			start := time.Now()
			entries, res := r.search(t)
			took := time.Since(start)
			if res.Code != ldap.ResultSuccess {
				t.Fatalf("res = %+v", res)
			}
			if !strings.Contains(res.Message, "hedge") {
				t.Errorf("hedged search not flagged partial: %q", res.Message)
			}
			if len(entries) != fast {
				t.Errorf("entries = %d, want %d (slow child cut off)", len(entries), fast)
			}
			if took >= delay {
				t.Errorf("search took %v — blocked on the slow child instead of hedging", took)
			}
		})
	}
}

// TestNoHedgeWaitsForAllChildren pins the pre-hedge semantics: with a zero
// deadline the search waits out every child, slow ones included.
func TestNoHedgeWaitsForAllChildren(t *testing.T) {
	const delay = 50 * time.Millisecond
	r := newFanoutRig(t, preset("chain", StrategyConfig{}), 3, 1, delay)
	start := time.Now()
	entries, res := r.search(t)
	took := time.Since(start)
	if res.Code != ldap.ResultSuccess || res.Message != "" {
		t.Fatalf("res = %+v", res)
	}
	if len(entries) != 4 {
		t.Errorf("entries = %d, want 4", len(entries))
	}
	if took < delay {
		t.Errorf("search took %v, should have waited out the %v child", took, delay)
	}
}

// TestMaxFanoutBoundsConcurrency: with MaxFanout 2 and children that stall
// briefly, no more than 2 chained searches ever run at once.
func TestMaxFanoutBoundsConcurrency(t *testing.T) {
	for _, tc := range chainingStrategies {
		t.Run(tc.name, func(t *testing.T) {
			r := newFanoutRig(t, tc.build(Fanout{MaxFanout: 2}), 0, 8, 10*time.Millisecond)
			entries, res := r.search(t)
			if res.Code != ldap.ResultSuccess {
				t.Fatalf("res = %+v", res)
			}
			if len(entries) != 8 {
				t.Errorf("entries = %d, want 8", len(entries))
			}
			if peak := r.gauge.peak.Load(); peak > 2 {
				t.Errorf("peak concurrent chained searches = %d, want <= MaxFanout (2)", peak)
			}
			if running := r.gauge.running.Load(); running != 0 {
				t.Errorf("children still running after search: %d", running)
			}
		})
	}
}

// TestConcurrentSearchStress hammers one GIIS from many clients while one
// child lags: designed to run clean under -race, covering the worker pool,
// the hedge cutoff, streamed sends, and the refcounted connection pool.
func TestConcurrentSearchStress(t *testing.T) {
	const (
		fast    = 12
		clients = 8
		rounds  = 3
		hedge   = 25 * time.Millisecond
	)
	r := newFanoutRig(t, preset("chain", StrategyConfig{Fanout: Fanout{MaxFanout: 4, HedgeDeadline: hedge}}),
		fast, 1, 300*time.Millisecond)
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				entries, res := r.search(t)
				if res.Code != ldap.ResultSuccess {
					errs <- fmt.Sprintf("res = %+v", res)
					return
				}
				if len(entries) > fast+1 {
					errs <- fmt.Sprintf("entries = %d", len(entries))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentSearchSurvivesEviction overlaps fan-out searches with pool
// evictions caused by severed connections: the refcounted pool must never
// close a client another chain is mid-Search on (the old dropClient race),
// and healed partitions must be re-dialed transparently.
func TestConcurrentSearchSurvivesEviction(t *testing.T) {
	for _, tc := range chainingStrategies {
		t.Run(tc.name, func(t *testing.T) { searchSurvivesEviction(t, tc.build(Fanout{})) })
	}
}

func searchSurvivesEviction(t *testing.T, strategy *Strategy) {
	network := simnet.New(1)
	g := New(Config{
		Name:     "giis.vo",
		Suffix:   ldap.MustParseDN("vo=v"),
		SelfURL:  ldap.MustParseURL("sim://giis-node:389"),
		Clock:    softstate.RealClock{},
		Strategy: strategy,
		Dial: func(url ldap.URL) (*ldap.Client, error) {
			conn, err := network.Dial("giis-node", url.Address())
			if err != nil {
				return nil, err
			}
			c := ldap.NewClient(conn)
			c.Timeout = 2 * time.Second
			return c, nil
		},
	})
	t.Cleanup(g.Close)
	var nodes []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("h%03d", i)
		suffix := ldap.MustParseDN("hn=" + name + ", o=c")
		child := &laggyChild{name: name, suffix: suffix, delay: time.Millisecond}
		srv := ldap.NewServer(child)
		l, err := network.Listen(name+"-node", "389")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		now := time.Now()
		if !g.Ingest(&grrp.Message{Type: grrp.TypeRegister,
			ServiceURL: fmt.Sprintf("sim://%s-node:389", name), MDSType: "gris",
			SuffixDN: suffix.String(), IssuedAt: now, ValidUntil: now.Add(time.Hour)}) {
			t.Fatal("registration refused")
		}
		nodes = append(nodes, name+"-node")
	}
	done := make(chan struct{})
	go func() {
		// Keep severing and healing the links while searches run, forcing
		// connection-level failures, retries, and evictions.
		for i := 0; i < 20; i++ {
			network.SetPartitions(append([]string{"giis-node"}, nodes[:2]...), nodes[2:])
			time.Sleep(2 * time.Millisecond)
			network.Heal()
			time.Sleep(2 * time.Millisecond)
		}
		close(done)
	}()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := &sink{}
				res := g.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
					&ldap.SearchRequest{BaseDN: "vo=v", Scope: ldap.ScopeWholeSubtree,
						Filter: ldap.MustParseFilter("(objectclass=computer)")}, w)
				if res.Code != ldap.ResultSuccess {
					// Severed links legitimately yield unavailable children;
					// only the result code matters for pool integrity.
					continue
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanoutStartsNoGoroutine: over a warm pool, a search issues every hop
// from its own goroutine. While it waits on 8 children, all held in their
// handlers, the directory runs no goroutine for it but the search's own.
func TestFanoutStartsNoGoroutine(t *testing.T) {
	g := newGrid(t)
	var children []*staticChild
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("h%d", i)
		suffix := "hn=" + name + ", o=grid"
		children = append(children, g.addChild(name, suffix, 0, hostEntries(suffix, name, "s1", 1)...))
	}
	d := g.directory("top", preset("chain", StrategyConfig{}))
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	if got, res := searchDNs(d, op); len(got) != 8 { // dials the pool
		t.Fatalf("warming search: %v, %+v", got, res)
	}
	// Stragglers of earlier tests' searches may still be finishing: let
	// them, and count what stays as the baseline.
	idle := directoryGoroutines()
	for start := time.Now(); idle > 0 && time.Since(start) < 5*time.Second; idle = directoryGoroutines() {
		time.Sleep(time.Millisecond)
	}
	release := make(chan struct{})
	for _, c := range children {
		c.held.Store(&release)
	}
	done := make(chan []string, 1)
	go func() {
		got, _ := searchDNs(d, op)
		done <- got
	}()
	for _, c := range children {
		<-c.arrived
	}
	running := directoryGoroutines() - idle
	for _, c := range children {
		c.held.Store(nil)
	}
	close(release)
	if got := <-done; len(got) != 8 {
		t.Fatalf("held search returned %v", got)
	}
	if running != 1 {
		t.Errorf("%d goroutines ran directory code while the search waited on its children, want 1: the search's own", running)
	}
}

// directoryGoroutines counts the goroutines with a directory frame on their
// stack (a server's, a search's or the fan-out's; not a test child's).
func directoryGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, stack := range bytes.Split(buf, []byte("\n\n")) {
		for _, line := range bytes.Split(stack, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("mds2/internal/giis.(*Server)")) ||
				bytes.HasPrefix(line, []byte("mds2/internal/giis.(*searchContext)")) ||
				bytes.HasPrefix(line, []byte("mds2/internal/giis.Fanout")) {
				n++
				break
			}
		}
	}
	return n
}
