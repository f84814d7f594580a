package qcache

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// Lookup is Claim's probe alone: the cached result for a key rendered by
// Region.AppendKey, counting only a hit.
func (c *Cache) Lookup(key []byte) ([]*ldap.Entry, bool) {
	entries, ok := c.t.Lookup(key)
	return slices.Clone(entries), ok
}

func testEntries(n int) []*ldap.Entry {
	es := make([]*ldap.Entry, n)
	for i := range es {
		es[i] = ldap.NewEntry(ldap.MustParseDN(fmt.Sprintf("hn=h%d, ou=test, o=grid", i))).
			Add("objectclass", "computer").
			Add("idx", fmt.Sprint(i))
	}
	return es
}

func region(base, filter string) Region {
	r := Region{Base: ldap.MustParseDN(base), Scope: ldap.ScopeWholeSubtree}
	if filter != "" {
		f, err := ldap.ParseFilter(filter)
		if err != nil {
			panic(err)
		}
		r.Filter = f
	}
	return r
}

func TestKeyNormalization(t *testing.T) {
	a := Region{Base: ldap.MustParseDN("OU=Test, O=Grid"), Scope: ldap.ScopeWholeSubtree,
		Filter: mustFilter("(ObjectClass=Computer)")}
	b := Region{Base: ldap.MustParseDN("ou=test,o=grid"), Scope: ldap.ScopeWholeSubtree,
		Filter: mustFilter("(objectclass=computer)")}
	if a.Key([]string{"CN", "hn"}, 0) != b.Key([]string{"hn", "cn"}, 0) {
		t.Fatal("equivalent queries produced different keys")
	}
	if a.Key(nil, 0) != b.Key([]string{"*"}, 0) {
		t.Fatal("nil attrs and \"*\" should share a key")
	}
	if a.Key(nil, 0) == b.Key(nil, 10) {
		t.Fatal("size limit must distinguish keys")
	}
	if a.Key(nil, 0) == (Region{Base: a.Base, Scope: ldap.ScopeSingleLevel, Filter: a.Filter}).Key(nil, 0) {
		t.Fatal("scope must distinguish keys")
	}
	withOwner := a
	withOwner.Owner = "ldap://peer:389"
	if a.Key(nil, 0) == withOwner.Key(nil, 0) {
		t.Fatal("owner must distinguish keys")
	}
}

func mustFilter(s string) *ldap.Filter {
	f, err := ldap.ParseFilter(s)
	if err != nil {
		panic(err)
	}
	return f
}

func TestGetOrFillHitAndMiss(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	reg := region("ou=test, o=grid", "(objectclass=computer)")
	key := reg.Key(nil, 0)

	fills := 0
	fill := func() ([]*ldap.Entry, error) { fills++; return testEntries(3), nil }

	got, how, err := c.GetOrFill(key, reg, time.Time{}, fill)
	if err != nil || how != OutcomeMiss || len(got) != 3 {
		t.Fatalf("first call: got %d entries, outcome %v, err %v", len(got), how, err)
	}
	got, how, err = c.GetOrFill(key, reg, time.Time{}, fill)
	if err != nil || how != OutcomeHit || len(got) != 3 {
		t.Fatalf("second call: got %d entries, outcome %v, err %v", len(got), how, err)
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestTTLExpiryExact(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: 10 * time.Second})
	reg := region("ou=test, o=grid", "")
	key := reg.Key(nil, 0)
	c.Put(key, reg, time.Time{}, testEntries(2))

	clk.Advance(10*time.Second - time.Nanosecond)
	if _, ok := c.Get(key); !ok {
		t.Fatal("result expired before its TTL")
	}
	clk.Advance(time.Nanosecond)
	if _, ok := c.Get(key); ok {
		t.Fatal("result served at exactly TTL — staler than the bound")
	}
	if s := c.Stats(); s.StaleSkips != 1 {
		t.Fatalf("stale skips = %d, want 1", s.StaleSkips)
	}
}

func TestSoftStateBoundCapsTTL(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	reg := region("ou=test, o=grid", "")
	key := reg.Key(nil, 0)

	// The contributing child's registration lapses in 5s: the cached result
	// must not outlive it even though the TTL is a minute.
	c.Put(key, reg, clk.Now().Add(5*time.Second), testEntries(1))
	clk.Advance(5 * time.Second)
	if _, ok := c.Get(key); ok {
		t.Fatal("result outlived its contributing soft-state deadline")
	}

	// A bound already in the past means the result is born stale: never cached.
	c.Put(key, reg, clk.Now().Add(-time.Second), testEntries(1))
	if _, ok := c.Get(key); ok {
		t.Fatal("born-stale result was cached")
	}
}

func TestNegativeCachingShortTTL(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute, NegTTL: 2 * time.Second})
	reg := region("ou=test, o=grid", "(hn=nope)")
	key := reg.Key(nil, 0)

	fills := 0
	fill := func() ([]*ldap.Entry, error) { fills++; return nil, nil }
	if _, how, _ := c.GetOrFill(key, reg, time.Time{}, fill); how != OutcomeMiss {
		t.Fatalf("outcome %v, want miss", how)
	}
	if got, how, _ := c.GetOrFill(key, reg, time.Time{}, fill); how != OutcomeHit || len(got) != 0 {
		t.Fatalf("negative result not served from cache (outcome %v)", how)
	}
	clk.Advance(2 * time.Second)
	if _, how, _ := c.GetOrFill(key, reg, time.Time{}, fill); how != OutcomeMiss {
		t.Fatalf("negative result outlived NegTTL (outcome %v)", how)
	}
	if fills != 2 {
		t.Fatalf("fill ran %d times, want 2", fills)
	}
}

// TestSingleflightStorm drives many concurrent identical misses through
// GetOrFill and asserts exactly one upstream fan-out happened: the leader
// runs fill while every other caller coalesces onto its flight.
func TestSingleflightStorm(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	reg := region("ou=test, o=grid", "(objectclass=computer)")
	key := reg.Key(nil, 0)

	const callers = 32
	var fills atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{}, callers)
	fill := func() ([]*ldap.Entry, error) {
		fills.Add(1)
		<-gate // hold the flight open until every caller has joined
		return testEntries(4), nil
	}

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered <- struct{}{}
			got, _, err := c.GetOrFill(key, reg, time.Time{}, fill)
			if err != nil || len(got) != 4 {
				t.Errorf("got %d entries, err %v", len(got), err)
			}
		}()
	}
	for i := 0; i < callers; i++ {
		<-entered
	}
	// Wait until all non-leaders are parked on the flight before releasing.
	for {
		if fills.Load() == 1 && c.Coalesced.Value() >= callers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("storm of %d identical queries caused %d fan-outs, want 1", callers, n)
	}
	if s := c.Stats(); s.Coalesced != callers-1 {
		t.Fatalf("coalesced = %d, want %d", s.Coalesced, callers-1)
	}
}

func TestHandOutsAreFreshContainers(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	reg := region("ou=test, o=grid", "")
	key := reg.Key(nil, 0)
	c.Put(key, reg, time.Time{}, testEntries(3))

	a, _ := c.Get(key)
	// Callers reorder and compact their result sets in place; that must not
	// leak into what other readers see.
	a[0], a[2] = a[2], a[0]
	a = a[:1]
	_ = a

	b, _ := c.Get(key)
	if len(b) != 3 {
		t.Fatalf("second hand-out has %d entries, want 3", len(b))
	}
	if b[0].First("idx") != "0" || b[2].First("idx") != "2" {
		t.Fatal("container mutation through one hand-out leaked into another")
	}
}

func TestClockEviction(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute, Max: 4})
	es := testEntries(1)
	for i := 0; i < 4; i++ {
		reg := region(fmt.Sprintf("ou=r%d, o=grid", i), "")
		c.Put(reg.Key(nil, 0), reg, time.Time{}, es)
	}
	// Touch keys 1..3 so key 0 is the cold one; one full CLOCK sweep clears
	// the insert-time ref bits, the second finds key 0 cold.
	for i := 1; i < 4; i++ {
		reg := region(fmt.Sprintf("ou=r%d, o=grid", i), "")
		if _, ok := c.Get(reg.Key(nil, 0)); !ok {
			t.Fatalf("warm key %d missing", i)
		}
	}
	reg4 := region("ou=r4, o=grid", "")
	c.Put(reg4.Key(nil, 0), reg4, time.Time{}, es)

	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4 (bounded)", c.Len())
	}
	if s := c.Stats(); s.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", s.Evicted)
	}
	if _, ok := c.Get(region("ou=r0, o=grid", "").Key(nil, 0)); ok {
		t.Fatal("cold key 0 should have been the CLOCK victim")
	}
	if _, ok := c.Get(reg4.Key(nil, 0)); !ok {
		t.Fatal("newly inserted key missing after eviction")
	}
}

func TestInvalidateOwner(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	mk := func(owner string) Region {
		r := region("ou=test, o=grid", "")
		r.Owner = owner
		return r
	}
	for _, o := range []string{"ldap://a:1", "ldap://a:1|ctl", "ldap://b:2"} {
		r := mk(o)
		c.Put(r.Key(nil, 0), r, time.Time{}, testEntries(1))
	}
	if n := c.InvalidateOwner("ldap://a:1"); n != 2 {
		t.Fatalf("invalidated %d keys, want 2 (exact + control variant)", n)
	}
	rb := mk("ldap://b:2")
	if _, ok := c.Get(rb.Key(nil, 0)); !ok {
		t.Fatal("unrelated owner's key was dropped")
	}
}

func TestServeStaleOnFillError(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: 5 * time.Second, ServeStale: true})
	reg := region("ou=test, o=grid", "")
	key := reg.Key(nil, 0)
	c.Put(key, reg, time.Time{}, testEntries(2))
	clk.Advance(10 * time.Second)

	boom := errors.New("child unreachable")
	got, how, err := c.GetOrFill(key, reg, time.Time{}, func() ([]*ldap.Entry, error) {
		return nil, boom
	})
	if err != nil || how != OutcomeStale || len(got) != 2 {
		t.Fatalf("stale serve: got %d entries, outcome %v, err %v", len(got), how, err)
	}
	// A caller that will not wait for a fill is served the expired value too.
	if got, ok := c.LookupStale([]byte(key)); !ok || len(got) != 2 {
		t.Fatalf("LookupStale: %d entries, ok %v", len(got), ok)
	}
	if n := c.StaleServed.Value(); n != 2 {
		t.Errorf("stale served %d times, want 2", n)
	}

	// Without ServeStale the error surfaces, and nothing expired is served.
	c2 := New(Config{Clock: clk, TTL: 5 * time.Second})
	c2.Put(key, reg, time.Time{}, testEntries(2))
	clk.Advance(10 * time.Second)
	if _, _, err := c2.GetOrFill(key, reg, time.Time{}, func() ([]*ldap.Entry, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want fill error", err)
	}
	if got, ok := c2.LookupStale([]byte(key)); ok {
		t.Fatalf("LookupStale without ServeStale served %d entries", len(got))
	}
}

func TestFlushAndEntries(t *testing.T) {
	clk := softstate.NewFakeClock()
	c := New(Config{Clock: clk, TTL: time.Minute})
	a := region("ou=a, o=grid", "")
	b := region("ou=b, o=grid", "")
	c.Put(a.Key(nil, 0), a, time.Time{}, testEntries(2))
	c.Put(b.Key(nil, 0), b, time.Time{}, testEntries(3))

	if got := c.Entries(); len(got) != 5 {
		t.Fatalf("Entries() returned %d, want 5", len(got))
	}
	c.Flush()
	if c.Len() != 0 || len(c.Entries()) != 0 {
		t.Fatal("flush left residents behind")
	}
	// The ring resets too: reinsertion after flush must work.
	c.Put(a.Key(nil, 0), a, time.Time{}, testEntries(1))
	if c.Len() != 1 {
		t.Fatal("insert after flush failed")
	}
}

// TestFillOwnsItsBytes: a chained hop's reply reaches the cache wire-backed,
// its entries aliasing the client's read chunks. What the cache keeps — and
// hands the fill's own caller — are copies over one buffer sized for the
// result (ldap.CompactSnapshots), so a cached result never pins a chunk.
func TestFillOwnsItsBytes(t *testing.T) {
	client, server := net.Pipe()
	c := ldap.NewClient(client)
	defer c.Close()
	defer server.Close()
	go func() {
		buf := make([]byte, 4096)
		n, _ := server.Read(buf)
		req, err := ldap.ScanMessage(buf[:n])
		if err != nil {
			return
		}
		for _, e := range testEntries(5) {
			server.Write((&ldap.Message{ID: req.ID, Op: &ldap.SearchResultEntry{Entry: e}}).Encode())
		}
		server.Write((&ldap.Message{ID: req.ID, Op: &ldap.SearchResultDone{}}).Encode())
	}()
	var fetched []*ldap.Entry
	qc := New(Config{Clock: softstate.NewFakeClock(), TTL: time.Minute})
	reg := region("ou=test, o=grid", "")
	got, how, err := qc.GetOrFill(reg.Key(nil, 0), reg, time.Time{}, func() ([]*ldap.Entry, error) {
		res, err := c.Search(&ldap.SearchRequest{BaseDN: "ou=test, o=grid", Scope: ldap.ScopeWholeSubtree})
		if err != nil {
			return nil, err
		}
		fetched = append(fetched, res.Entries...)
		return res.Entries, nil
	})
	if err != nil || how != OutcomeMiss || len(got) != 5 || len(fetched) != 5 {
		t.Fatalf("fill: %d of %d entries, %v, %v", len(got), len(fetched), how, err)
	}
	for i, e := range got {
		if e == fetched[i] {
			t.Errorf("entry %d is cached as it was fetched, still aliasing its read chunk", i)
		}
		if e.String() != fetched[i].String() {
			t.Errorf("entry %d: cached %s, fetched %s", i, e, fetched[i])
		}
	}
}
