package gris

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// countingBackend is a cacheable backend safe for concurrent invocation,
// counting provider executions and optionally charging a fixed cost.
type countingBackend struct {
	suffix ldap.DN
	ttl    time.Duration
	cost   time.Duration
	calls  atomic.Int64
}

func (b *countingBackend) Name() string            { return "counting" }
func (b *countingBackend) Suffix() ldap.DN         { return b.suffix }
func (b *countingBackend) Attributes() []string    { return nil }
func (b *countingBackend) CacheTTL() time.Duration { return b.ttl }
func (b *countingBackend) Entries(*Query) ([]*ldap.Entry, error) {
	b.calls.Add(1)
	if b.cost > 0 {
		time.Sleep(b.cost)
	}
	return []*ldap.Entry{ldap.NewEntry(b.suffix).
		Add("objectclass", "computer").
		Add("hn", "hostX")}, nil
}

// nullSink discards entries; safe for concurrent use.
type nullSink struct{}

func (nullSink) SendEntry(*ldap.Entry, ...ldap.Control) error { return nil }
func (nullSink) SendReferral(...string) error                 { return nil }

// TestCacheStampedeCoalesced is the regression test for the TTL-boundary
// stampede: N concurrent queries against an expired cacheable backend must
// produce exactly one provider invocation, with every waiter sharing the
// leader's result.
func TestCacheStampedeCoalesced(t *testing.T) {
	const clients = 32
	backend := &countingBackend{suffix: hostDN(), ttl: time.Hour, cost: 20 * time.Millisecond}
	s := New(Config{Suffix: hostDN(), Clock: softstate.NewFakeClock()})
	s.Register(backend)

	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	counts := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := &sink{}
			res := s.Search(anonReq(), req, w)
			errs <- res.Err()
			counts <- len(w.entries)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	close(counts)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent search failed: %v", err)
		}
	}
	for n := range counts {
		if n != 1 {
			t.Fatalf("waiter saw %d entries, want 1", n)
		}
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("backend executed %d times under stampede, want 1", got)
	}
	if got := s.Invocations.Value(); got != 1 {
		t.Errorf("Invocations = %d, want 1", got)
	}
	// All queries are accounted for: one invocation, the rest served from
	// the shared flight or the refilled cache.
	if hits := s.CacheHits.Value(); hits != clients-1 {
		t.Errorf("CacheHits = %d, want %d", hits, clients-1)
	}
}

// TestCacheExpiryReinvokes makes sure coalescing does not turn into
// serving-stale-forever: after the TTL passes, the next query invokes the
// provider again.
func TestCacheExpiryReinvokes(t *testing.T) {
	clock := softstate.NewFakeClock()
	backend := &countingBackend{suffix: hostDN(), ttl: 10 * time.Second}
	s := New(Config{Suffix: hostDN(), Clock: clock})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}

	s.Search(anonReq(), req, nullSink{})
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (second query cached)", got)
	}
	clock.Advance(11 * time.Second)
	s.Search(anonReq(), req, nullSink{})
	if got := backend.calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2 after TTL expiry", got)
	}
}

// BenchmarkCacheStampede drives parallel queries whose TTL keeps expiring
// under a provider charging a real execution cost: with singleflight each
// expiry costs one invocation; without it, every concurrent miss would pay
// (and queue behind) the provider.
func BenchmarkCacheStampede(b *testing.B) {
	backend := &countingBackend{suffix: hostDN(), ttl: 10 * time.Millisecond, cost: time.Millisecond}
	s := New(Config{Suffix: hostDN()})
	s.Register(backend)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeWholeSubtree}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res := s.Search(anonReq(), req, nullSink{}); res.Code != ldap.ResultSuccess {
				b.Fatal(res)
			}
		}
	})
	b.ReportMetric(float64(backend.calls.Load()), "invocations")
}

// sharedBackend returns one result set — the same pointers — every round,
// as a producer that keeps its corpus does.
type sharedBackend struct {
	suffix  ldap.DN
	entries []*ldap.Entry
}

func (b *sharedBackend) Name() string                          { return "shared" }
func (b *sharedBackend) Suffix() ldap.DN                       { return b.suffix }
func (b *sharedBackend) Attributes() []string                  { return nil }
func (b *sharedBackend) CacheTTL() time.Duration               { return time.Second }
func (b *sharedBackend) Entries(*Query) ([]*ldap.Entry, error) { return b.entries, nil }

// encodeSink encodes every entry it is sent, as a connection writer does.
type encodeSink struct{ buf []byte }

func (w *encodeSink) SendEntry(e *ldap.Entry, _ ...ldap.Control) error {
	w.buf = (&ldap.Message{ID: 1, Op: &ldap.SearchResultEntry{Entry: e}}).AppendTo(w.buf[:0])
	return nil
}
func (*encodeSink) SendReferral(...string) error { return nil }

// TestSharedBackendAdoptedConcurrently: two GRIS servers over one backend
// that hands both the same entries adopt them into their snapshots at once,
// round after round, while their enquiries encode them. Each snapshot store
// publishes the entries' wire form as it adopts them, and the first server
// journals each round while a snapshot of the journal is being written;
// under -race (and -tags mdsdebug, which seals them too) that must be clean.
func TestSharedBackendAdoptedConcurrently(t *testing.T) {
	backend := &sharedBackend{suffix: hostDN()}
	for i := 0; i < 32; i++ {
		backend.entries = append(backend.entries, ldap.NewEntry(hostDN().ChildAVA("cpu", fmt.Sprint(i))).
			Add("objectclass", "device").Add("load", "0.5", "0.7"))
	}
	clock := softstate.NewFakeClock()
	servers := []*Server{New(Config{Suffix: hostDN(), Clock: clock}), New(Config{Suffix: hostDN(), Clock: clock})}
	for _, s := range servers {
		s.Register(backend)
	}
	pm, _, _ := bootPersisted(t, servers[0], t.TempDir(), clock)
	req := &ldap.SearchRequest{BaseDN: hostDN().String(), Scope: ldap.ScopeSingleLevel}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pm.Snapshot(); err != nil {
				t.Errorf("round %d: snapshot: %v", round, err)
			}
		}()
		for _, s := range servers {
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(s *Server) {
					defer wg.Done()
					w := &encodeSink{}
					if res := s.Search(anonReq(), req, w); res.Code != ldap.ResultSuccess || len(w.buf) == 0 {
						t.Errorf("round %d: %+v", round, res)
					}
				}(s)
			}
		}
		wg.Wait()
		clock.Advance(2 * time.Second) // the next round re-adopts the same pointers
	}
}
