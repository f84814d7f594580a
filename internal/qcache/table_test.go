package qcache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// modelVal is a table value that knows its own expiry, so whoever is served
// it can tell whether it was still fresh.
type modelVal struct {
	id      int
	expires time.Time
}

// modelRef is what a plain map says about one key: its last kept value and
// owner, resident (expired or not) until invalidated, flushed or — in a
// bounded table, found missing — evicted.
type modelRef struct {
	v     *modelVal
	owner string
}

// tableModel drives one random sequence against a Table and the reference.
type tableModel struct {
	t     *testing.T
	rng   *rand.Rand
	clock *softstate.FakeClock
	tab   *Table[*modelVal]
	max   int
	stale bool
	ref   map[string]modelRef
	next  int
	drops int // InvalidateOwner and Flush calls so far

	coalesced obs.Counter
	inflight  map[string]*atomic.Int32 // fills running per key
}

var (
	modelKeys   = []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	modelOwners = []string{"a", "a|x", "b"}
	errFill     = errors.New("fill failed")
)

func (m *tableModel) fresh(key string) (*modelVal, bool) {
	r, ok := m.ref[key]
	if !ok || !m.clock.Now().Before(r.v.expires) {
		return nil, false
	}
	return r.v, true
}

// newVal mints a value that expires within a few seconds of now; one in
// eight is already expired.
func (m *tableModel) newVal() *modelVal {
	m.next++
	return &modelVal{id: m.next, expires: m.clock.Now().Add(time.Duration(m.rng.Intn(8)-1) * time.Second)}
}

// put records a value the table was asked to keep until its expiry.
func (m *tableModel) put(key, owner string, v *modelVal) {
	if v.expires.After(m.clock.Now()) {
		m.ref[key] = modelRef{v, owner}
	}
}

// served checks a value the table handed out against the reference: a
// fresh key's one value, nothing for a key with none. A bounded table may
// have evicted a key the reference still holds; that is learned here.
func (m *tableModel) served(op, key string, v *modelVal, ok bool) {
	m.t.Helper()
	want, fresh := m.fresh(key)
	switch {
	case ok && !fresh:
		m.t.Fatalf("%s %s: served %+v, which the reference says is absent or expired", op, key, v)
	case ok && v != want:
		m.t.Fatalf("%s %s: served %+v, want %+v", op, key, v, want)
	case ok && !m.clock.Now().Before(v.expires):
		m.t.Fatalf("%s %s: served %+v at or past its expiry", op, key, v)
	case !ok && fresh && m.max == 0:
		m.t.Fatalf("%s %s: missed a fresh key in an unbounded table", op, key)
	case !ok && fresh:
		delete(m.ref, key) // evicted
	}
}

// fill returns a fill for key that checks it runs alone, waits on gate
// (when non-nil), and then either fails or mints a value.
func (m *tableModel) fill(key string, fail bool, gate chan struct{}, v *modelVal) func() (*modelVal, time.Time, error) {
	n := m.inflight[key]
	return func() (*modelVal, time.Time, error) {
		if n.Add(1) != 1 {
			m.t.Errorf("two fills of %s at once", key)
		}
		defer n.Add(-1)
		if gate != nil {
			<-gate
		}
		if fail {
			return nil, time.Time{}, errFill
		}
		return v, v.expires, nil
	}
}

// filled checks one GetOrFill result against the reference as it stood
// when the call began (fresh, prior) and applies a kept fill.
func (m *tableModel) filled(key, owner string, fresh bool, prior modelRef, hadPrior bool,
	v *modelVal, minted *modelVal, how Outcome, err error) {
	m.t.Helper()
	switch how {
	case OutcomeHit:
		if !fresh || v != prior.v {
			m.t.Fatalf("GetOrFill %s: hit %+v, reference fresh %v with %+v", key, v, fresh, prior.v)
		}
	case OutcomeStale:
		if !m.stale || !hadPrior || v != prior.v || err != nil {
			m.t.Fatalf("GetOrFill %s: stale %+v (err %v), reference %+v (resident %v, serve stale %v)",
				key, v, err, prior.v, hadPrior, m.stale)
		}
	case OutcomeMiss, OutcomeCoalesced:
		if fresh && m.max == 0 {
			m.t.Fatalf("GetOrFill %s: filled a fresh key of an unbounded table", key)
		}
		if err != nil {
			if !errors.Is(err, errFill) {
				m.t.Fatalf("GetOrFill %s: err %v", key, err)
			}
			if m.stale && hadPrior && m.max == 0 {
				m.t.Fatalf("GetOrFill %s: failed fill did not serve the resident value", key)
			}
			return
		}
		if v != minted {
			m.t.Fatalf("GetOrFill %s: got %+v, the fill made %+v", key, v, minted)
		}
		m.put(key, owner, v)
	}
}

func (m *tableModel) getOrFill(key string) {
	m.t.Helper()
	owner := modelOwners[m.rng.Intn(len(modelOwners))]
	fail := m.rng.Intn(4) == 0
	minted := m.newVal()
	_, fresh := m.fresh(key)
	prior, hadPrior := m.ref[key]
	v, how, err := m.tab.GetOrFill(key, owner, m.fill(key, fail, nil, minted))
	m.filled(key, owner, fresh, prior, hadPrior, v, minted, how, err)
}

// storm runs callers concurrent GetOrFills of one key whose fill is held
// open while other operations run, then released.
func (m *tableModel) storm(key string) {
	m.t.Helper()
	callers := 2 + m.rng.Intn(4)
	owner := modelOwners[m.rng.Intn(len(modelOwners))]
	fail := m.rng.Intn(4) == 0
	minted := m.newVal()
	_, fresh := m.fresh(key)
	prior, hadPrior := m.ref[key]
	gate := make(chan struct{})
	fill := m.fill(key, fail, gate, minted)
	type result struct {
		v   *modelVal
		how Outcome
		err error
	}
	results := make(chan result, callers)
	before := m.coalesced.Value()
	drops := m.drops
	for i := 0; i < callers; i++ {
		go func() {
			v, how, err := m.tab.GetOrFill(key, owner, fill)
			results <- result{v, how, err}
		}()
	}
	if !fresh {
		// Wait until one caller is filling and the rest have parked on it.
		for m.inflight[key].Load() != 1 || m.coalesced.Value() != before+int64(callers-1) {
			if len(results) > 0 {
				r := <-results
				m.t.Fatalf("storm %s: a caller returned %+v (%v, %v) before the fill did", key, r.v, r.how, r.err)
			}
			runtime.Gosched()
		}
		// Others go on meanwhile: anything but a GetOrFill of this key,
		// which would join the flight.
		for i := m.rng.Intn(4); i > 0; i-- {
			if k := modelKeys[m.rng.Intn(len(modelKeys))]; k != key {
				m.step(k, false)
			}
		}
		// A Put of the key or a clock step while the flight is open does
		// not change what its callers get. An InvalidateOwner or Flush
		// (of any owner) keeps the fill's value out of the table.
	}
	close(gate)
	leaders := 0
	for i := 0; i < callers; i++ {
		r := <-results
		if r.how == OutcomeMiss || r.how == OutcomeStale {
			leaders++
		}
		if fresh {
			// All hit — unless a bounded table had evicted the key, when the
			// callers fill it once and those arriving after hit the fill's
			// value.
			if r.how != OutcomeHit || r.v != minted || m.max == 0 {
				m.filled(key, owner, fresh, prior, hadPrior, r.v, minted, r.how, r.err)
			}
			continue
		}
		if r.how == OutcomeHit {
			m.t.Fatalf("storm %s: a caller hit a key that was not fresh", key)
		}
		if fail && m.stale && hadPrior && r.err == nil && r.v != prior.v {
			m.t.Fatalf("storm %s: stale serve handed out %+v, want %+v", key, r.v, prior.v)
		}
		if !fail && (r.err != nil || r.v != minted) {
			m.t.Fatalf("storm %s: caller got %+v (%v), the fill made %+v", key, r.v, r.err, minted)
		}
	}
	if !fresh {
		if leaders != 1 {
			m.t.Fatalf("storm %s: %d callers led the fill, want 1", key, leaders)
		}
		if !fail && m.drops == drops {
			m.put(key, owner, minted)
		}
	}
}

// step runs one random operation on key; storms only when allowed (never
// nested inside another storm).
func (m *tableModel) step(key string, storms bool) {
	m.t.Helper()
	switch op := m.rng.Intn(20); {
	case op < 4:
		v, ok := m.tab.Get(key)
		m.served("Get", key, v, ok)
	case op < 7:
		v, ok := m.tab.Lookup([]byte(key))
		m.served("Lookup", key, v, ok)
	case op < 10:
		owner := modelOwners[m.rng.Intn(len(modelOwners))]
		v := m.newVal()
		m.tab.Put(key, owner, v, v.expires)
		m.put(key, owner, v)
	case op < 13:
		m.getOrFill(key)
	case op < 15 && storms:
		m.storm(key)
	case op < 16:
		m.drops++
		owner := modelOwners[m.rng.Intn(len(modelOwners))]
		want := 0
		for k, r := range m.ref {
			if r.owner == owner || strings.HasPrefix(r.owner, owner+"|") {
				delete(m.ref, k)
				want++
			}
		}
		if n := m.tab.InvalidateOwner(owner); n != want && m.max == 0 {
			m.t.Fatalf("InvalidateOwner(%s) dropped %d keys, want %d", owner, n, want)
		}
		m.tab.each(func(it item[*modelVal]) {
			if it.Owner == owner || strings.HasPrefix(it.Owner, owner+"|") {
				m.t.Errorf("InvalidateOwner(%s) left %s behind", owner, it.Key)
			}
		})
	case op < 17:
		m.drops++
		m.tab.Flush()
		clear(m.ref)
	default:
		// Whole seconds land exactly on expiries (values live whole
		// seconds); milliseconds fall between them.
		unit := time.Second
		if m.rng.Intn(2) == 0 {
			unit = 250 * time.Millisecond
		}
		m.clock.Advance(time.Duration(m.rng.Intn(3)) * unit)
	}
	if n := m.tab.Len(); m.max > 0 && n > m.max {
		m.t.Fatalf("%d keys resident, bound %d", n, m.max)
	} else if m.max == 0 && n != len(m.ref) {
		m.t.Fatalf("%d keys resident, the reference holds %d", n, len(m.ref))
	}
}

// TestTableAgreesWithMapModel drives random sequences of Put, Get, Lookup,
// GetOrFill (failing and slow fills among them, held open across other
// operations), InvalidateOwner, Flush and clock steps through tables
// bounded and not, serving stale and not, against a plain map. Nothing is
// served at or past its expiry except a ServeStale answer to a failed fill;
// a bounded table never holds more than Max keys; an invalidated owner
// leaves no key behind; and one fill runs per key at a time.
func TestTableAgreesWithMapModel(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		for _, max := range []int{0, 3} {
			for _, stale := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d/max%d/stale%v", seed, max, stale), func(t *testing.T) {
					m := &tableModel{t: t, rng: rand.New(rand.NewSource(seed)), clock: softstate.NewFakeClock(),
						max: max, stale: stale, ref: map[string]modelRef{}, inflight: map[string]*atomic.Int32{}}
					for _, k := range modelKeys {
						m.inflight[k] = &atomic.Int32{}
					}
					m.tab = NewTable[*modelVal](TableConfig{Clock: m.clock, Max: max, ServeStale: stale,
						Counters: Counters{Coalesced: &m.coalesced}})
					for i := 0; i < 300; i++ {
						m.step(modelKeys[m.rng.Intn(len(modelKeys))], true)
					}
				})
			}
		}
	}
}

// TestTableConcurrentMixedOps hammers one small bounded table from several
// goroutines at once (run it under -race): whatever interleaving, a hit is
// never expired and the bound holds.
func TestTableConcurrentMixedOps(t *testing.T) {
	clock := softstate.NewFakeClock()
	tab := NewTable[*modelVal](TableConfig{Clock: clock, Max: 4, ServeStale: true})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := modelKeys[rng.Intn(len(modelKeys))]
				began := clock.Now()
				var v *modelVal
				var ok bool
				switch rng.Intn(6) {
				case 0:
					v, ok = tab.Get(key)
				case 1:
					v, ok = tab.Lookup([]byte(key))
				case 2:
					var how Outcome
					v, how, _ = tab.GetOrFill(key, "a", func() (*modelVal, time.Time, error) {
						if rng.Intn(3) == 0 {
							return nil, time.Time{}, errFill
						}
						e := clock.Now().Add(time.Second)
						return &modelVal{expires: e}, e, nil
					})
					ok = how == OutcomeHit
				case 3:
					tab.InvalidateOwner(modelOwners[rng.Intn(len(modelOwners))])
				case 4:
					e := clock.Now().Add(time.Duration(rng.Intn(3)) * time.Second)
					tab.Put(key, modelOwners[rng.Intn(len(modelOwners))], &modelVal{expires: e}, e)
				default:
					clock.Advance(100 * time.Millisecond)
				}
				// The clock only moves forward: a hit judged fresh at some
				// instant after began expires after began too.
				if ok && !v.expires.After(began) {
					t.Errorf("hit on %s expired at %v, before the call began at %v", key, v.expires, began)
				}
				if n := tab.Len(); n > 4 {
					t.Errorf("%d keys resident, bound 4", n)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFillOvertakenByDepartureIsNotKept holds a fill open while its owner
// departs (or the table is flushed): the fill's callers still get its value,
// but the table does not keep it, so the departed owner's answer is not
// served for up to a TTL after it left.
func TestFillOvertakenByDepartureIsNotKept(t *testing.T) {
	for _, drop := range []struct {
		name string
		fn   func(*Table[*modelVal])
	}{
		{"InvalidateOwner", func(tab *Table[*modelVal]) { tab.InvalidateOwner("a") }},
		{"Flush", func(tab *Table[*modelVal]) { tab.Flush() }},
	} {
		t.Run(drop.name, func(t *testing.T) {
			clock := softstate.NewFakeClock()
			tab := NewTable[*modelVal](TableConfig{Clock: clock})
			expires := clock.Now().Add(time.Minute)
			minted := &modelVal{id: 1, expires: expires}
			filling, release := make(chan struct{}), make(chan struct{})
			type result struct {
				v   *modelVal
				how Outcome
				err error
			}
			done := make(chan result, 1)
			go func() {
				v, how, err := tab.GetOrFill("k", "a|child", func() (*modelVal, time.Time, error) {
					close(filling)
					<-release
					return minted, expires, nil
				})
				done <- result{v, how, err}
			}()
			<-filling
			drop.fn(tab)
			close(release)
			r := <-done
			if r.v != minted || r.how != OutcomeMiss || r.err != nil {
				t.Fatalf("GetOrFill = %+v, %v, %v; want the fill's value as a miss", r.v, r.how, r.err)
			}
			if v, ok := tab.Get("k"); ok {
				t.Fatalf("Get after the owner departed mid-fill served %+v", v)
			}
			if n := tab.Len(); n != 0 {
				t.Fatalf("%d keys resident, want 0", n)
			}
			// The next fill, begun after the departure, is kept as usual.
			if _, how, _ := tab.GetOrFill("k", "a|child", func() (*modelVal, time.Time, error) {
				return minted, expires, nil
			}); how != OutcomeMiss {
				t.Fatalf("refill outcome %v, want miss", how)
			}
			if v, ok := tab.Get("k"); !ok || v != minted {
				t.Fatalf("Get after a clean refill = %+v, %v", v, ok)
			}
		})
	}
}

// TestLeaderRechecksAfterWinningFlight lands another caller's whole fill
// between a GetOrFill's first lookup and its flight — the window in which
// the caller has missed but the key has since been filled. The caller then
// leads a new flight, and its re-check inside that flight must find the
// value instead of filling again.
func TestLeaderRechecksAfterWinningFlight(t *testing.T) {
	clock := softstate.NewFakeClock()
	tab := NewTable[*modelVal](TableConfig{Clock: clock})
	expires := clock.Now().Add(time.Minute)
	first := &modelVal{id: 1, expires: expires}
	tab.raced = func() {
		tab.raced = nil
		if _, how, err := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
			return first, expires, nil
		}); how != OutcomeMiss || err != nil {
			t.Fatalf("racing fill: %v, %v", how, err)
		}
	}
	v, how, err := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
		t.Error("the leader filled a key that another fill had just published")
		return &modelVal{id: 2, expires: expires}, expires, nil
	})
	if v != first || how != OutcomeHit || err != nil {
		t.Fatalf("GetOrFill = %+v, %v, %v; want the racing fill's value as a hit", v, how, err)
	}
}

// TestFillEndsReachEveryJoiner: however its leader ends a fill — keeping a
// value, passing one on, failing — each caller that joined it gets that end,
// whether it blocks in Wait or waits through OnDone, and only then; a joiner
// that arrives after the end learns of it at once. The next miss of the key
// leads a fill of its own.
func TestFillEndsReachEveryJoiner(t *testing.T) {
	clock := softstate.NewFakeClock()
	var coalesced obs.Counter
	tab := NewTable[*modelVal](TableConfig{Clock: clock, Counters: Counters{Coalesced: &coalesced}})
	boom := errors.New("boom")
	minted := &modelVal{id: 7}
	for _, end := range []struct {
		name   string
		end    func(*Fill[*modelVal])
		v      *modelVal
		passed bool
		err    error
	}{
		{"keep", func(f *Fill[*modelVal]) { f.Keep(minted, clock.Now().Add(time.Minute)) }, minted, false, nil},
		{"pass", func(f *Fill[*modelVal]) { f.Pass(minted) }, minted, true, nil},
		{"fail", func(f *Fill[*modelVal]) { f.Fail(boom) }, nil, false, boom},
	} {
		key := []byte(end.name)
		_, lead, how := tab.Claim(key, "a")
		if how != OutcomeMiss {
			t.Fatalf("%s: first claim %v, want a miss to lead", end.name, how)
		}
		_, joined, how := tab.Claim(key, "a")
		if how != OutcomeCoalesced || joined != lead {
			t.Fatalf("%s: second claim %v, want to join the first's fill", end.name, how)
		}
		woke := make(chan struct{}, 2)
		joined.OnDone(func() { woke <- struct{}{} })
		waited := make(chan error, 1)
		go func() {
			v, passed, err := joined.Wait()
			if v != end.v || passed != end.passed {
				t.Errorf("%s: Wait = %v, %v", end.name, v, passed)
			}
			waited <- err
		}()
		select {
		case <-woke:
			t.Fatalf("%s: OnDone ran before the fill ended", end.name)
		case <-waited:
			t.Fatalf("%s: Wait returned before the fill ended", end.name)
		case <-time.After(5 * time.Millisecond):
		}
		end.end(lead)
		<-woke
		if err := <-waited; err != end.err {
			t.Fatalf("%s: joiner got err %v, want %v", end.name, err, end.err)
		}
		lead.OnDone(func() { woke <- struct{}{} }) // ended: runs at once
		select {
		case <-woke:
		default:
			t.Fatalf("%s: OnDone after the end did not run at once", end.name)
		}
		if _, _, how := tab.Claim(key, "a"); how != map[bool]Outcome{true: OutcomeHit, false: OutcomeMiss}[end.name == "keep"] {
			t.Fatalf("%s: the next claim was %v", end.name, how)
		}
	}
	if coalesced.Value() != 3 {
		t.Fatalf("coalesced = %d, want one joiner per fill", coalesced.Value())
	}
}

// TestFillSharesOneExecution parks joiners behind a gated leader: fill runs
// once, every joiner gets the leader's value as OutcomeCoalesced, Coalesced
// has already counted them while they wait, and once the fill is retired
// (and its value flushed) the next miss runs fill again.
func TestFillSharesOneExecution(t *testing.T) {
	const callers = 16
	clock := softstate.NewFakeClock()
	var coalesced obs.Counter
	tab := NewTable[*modelVal](TableConfig{Clock: clock, Counters: Counters{Coalesced: &coalesced}})
	minted := &modelVal{id: 42}
	var runs atomic.Int64
	gate := make(chan struct{})
	fill := func() (*modelVal, time.Time, error) {
		runs.Add(1)
		<-gate
		return minted, clock.Now().Add(time.Minute), nil
	}
	var wg sync.WaitGroup
	var joiners atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, how, err := tab.GetOrFill("k", "a", fill)
			if v != minted || err != nil {
				t.Errorf("GetOrFill = %+v, %v", v, err)
			}
			if how == OutcomeCoalesced {
				joiners.Add(1)
			}
		}()
	}
	for coalesced.Value() < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if runs.Load() != 1 || joiners.Load() != callers-1 {
		t.Fatalf("fill ran %d times, %d callers joined; want 1 and %d", runs.Load(), joiners.Load(), callers-1)
	}
	tab.Flush()
	if _, how, _ := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
		runs.Add(1)
		return minted, clock.Now().Add(time.Minute), nil
	}); how != OutcomeMiss || runs.Load() != 2 {
		t.Fatalf("after the fill retired: outcome %v, %d runs; want a miss that fills again", how, runs.Load())
	}
}

// TestFillSharesTheError: a failed fill's error reaches its leader and the
// caller that joined it, and nothing is kept, so the next call fills again.
func TestFillSharesTheError(t *testing.T) {
	clock := softstate.NewFakeClock()
	var coalesced obs.Counter
	tab := NewTable[*modelVal](TableConfig{Clock: clock, Counters: Counters{Coalesced: &coalesced}})
	boom := errors.New("boom")
	filling, gate := make(chan struct{}), make(chan struct{})
	led := make(chan error, 1)
	go func() {
		v, how, err := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
			close(filling)
			<-gate
			return nil, time.Time{}, boom
		})
		if v != nil || how != OutcomeMiss {
			t.Errorf("leader: GetOrFill = %+v, %v", v, how)
		}
		led <- err
	}()
	<-filling
	joined := make(chan error, 1)
	go func() {
		v, how, err := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
			t.Error("a joiner ran fill")
			return nil, time.Time{}, nil
		})
		if v != nil || how != OutcomeCoalesced {
			t.Errorf("joiner: GetOrFill = %+v, %v", v, how)
		}
		joined <- err
	}()
	for coalesced.Value() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-led; !errors.Is(err, boom) {
		t.Fatalf("leader got err %v, want %v", err, boom)
	}
	if err := <-joined; !errors.Is(err, boom) {
		t.Fatalf("joiner got err %v, want %v", err, boom)
	}
	if _, how, err := tab.GetOrFill("k", "a", func() (*modelVal, time.Time, error) {
		return &modelVal{id: 1}, clock.Now().Add(time.Minute), nil
	}); how != OutcomeMiss || err != nil {
		t.Fatalf("after a failed fill: outcome %v, err %v; want a miss that fills", how, err)
	}
}
