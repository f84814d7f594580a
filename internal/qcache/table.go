package qcache

import (
	"strings"
	"sync"
	"time"

	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// Table is the repo's one TTL'd value table: the query cache's result sets,
// a GRIS's provider rounds and a directory's Bloom summaries all live in
// one. Each value carries an absolute expiry its caller computed and is
// served only before it; concurrent misses of one key share one fill; the
// keys of an owner (and of its "owner|…" variants) drop together; and a
// positive Max bounds the resident keys by CLOCK eviction. Values are shared
// by every reader and must not be written after they are put.
type Table[V any] struct {
	clock      softstate.Clock
	max        int
	serveStale bool
	counts     Counters

	mu    sync.Mutex
	items map[string]*slot[V]
	ring  []*slot[V] // CLOCK ring; nil holes are free positions
	free  []int
	hand  int
	gen   uint64 // bumped by InvalidateOwner and Flush

	fills map[string]*Fill[V] // misses being filled, by key
	raced func()              // test seam: runs between GetOrFill's lookup and its claim
}

// TableConfig assembles a Table.
type TableConfig struct {
	// Clock decides freshness.
	Clock softstate.Clock
	// Max bounds the resident keys by CLOCK eviction; zero is unbounded.
	Max int
	// ServeStale answers a failed fill with the expired value, when one is
	// still resident.
	ServeStale bool
	Counters
}

// Counters are the events a table counts; a nil counter counts nothing.
type Counters struct {
	Hits        *obs.Counter // fresh values served
	Misses      *obs.Counter // fills run
	Coalesced   *obs.Counter // callers that joined another's fill, as they join
	Evicted     *obs.Counter // keys the CLOCK bound pushed out
	Invalidated *obs.Counter // keys dropped with their owner
	StaleSkips  *obs.Counter // expired values passed over by Get and GetOrFill
	StaleServed *obs.Counter // expired values served after a failed fill
}

// item is one resident value.
type item[V any] struct {
	Key, Owner string
	Value      V
	Expires    time.Time
	Referenced bool // the CLOCK reference bit
}

type slot[V any] struct {
	item[V]
	pos int // position in the CLOCK ring
}

// Outcome reports how Claim or GetOrFill satisfied a lookup.
type Outcome int

// GetOrFill outcomes.
const (
	// OutcomeMiss: the caller leads the fill (GetOrFill: its fill ran).
	OutcomeMiss Outcome = iota
	// OutcomeHit: served a fresh value.
	OutcomeHit
	// OutcomeCoalesced: joined another caller's in-flight fill.
	OutcomeCoalesced
	// OutcomeStale: the fill failed and the expired value was served
	// (ServeStale).
	OutcomeStale
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeStale:
		return "stale"
	default:
		return "miss"
	}
}

// NewTable builds an empty table.
func NewTable[V any](cfg TableConfig) *Table[V] {
	return &Table[V]{clock: cfg.Clock, max: cfg.Max, serveStale: cfg.ServeStale,
		counts: cfg.Counters, items: map[string]*slot[V]{}, fills: map[string]*Fill[V]{}}
}

// Get returns key's value when it is fresh.
func (t *Table[V]) Get(key string) (V, bool) {
	v, _, ok := t.fresh(key, t.counts.StaleSkips)
	return v, ok
}

// fresh is Get counting an expired value on stale; it also returns the
// table generation it looked in.
func (t *Table[V]) fresh(key string, stale *obs.Counter) (V, uint64, bool) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.hitLocked(t.items[key], now, stale)
	return v, t.gen, ok
}

// Lookup is Get for a key in a buffer of the caller's: the probe makes no
// string of it, so it allocates nothing. It counts only a hit — a caller
// that misses goes on to GetOrFill, which counts the miss once.
func (t *Table[V]) Lookup(key []byte) (V, bool) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hitLocked(t.items[string(key)], now, nil)
}

// LookupStale is Lookup for a caller that will not wait for a fill: a
// ServeStale table serves key's resident value however old, counting an
// expired one as stale served.
func (t *Table[V]) LookupStale(key []byte) (v V, ok bool) {
	if v, ok = t.Lookup(key); ok {
		return v, true
	}
	if v, ok = t.stale(string(key)); ok {
		t.counts.StaleServed.Inc()
	}
	return v, ok
}

// hitLocked serves it if it is fresh at now, counting an expired one on
// stale. Caller holds mu.
func (t *Table[V]) hitLocked(it *slot[V], now time.Time, stale *obs.Counter) (v V, ok bool) {
	if it == nil {
		return v, false
	}
	if !now.Before(it.Expires) {
		stale.Inc()
		return v, false
	}
	it.Referenced = true
	t.counts.Hits.Inc()
	return it.Value, true
}

// Claim probes key, in a buffer of the caller's, for a fresh value. On a
// miss the caller gets the key's one fill: another caller's to wait for
// (OutcomeCoalesced), or a new one it must end with Keep, Pass or Fail.
func (t *Table[V]) Claim(key []byte, owner string) (V, *Fill[V], Outcome) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.hitLocked(t.items[string(key)], now, t.counts.StaleSkips); ok {
		return v, nil, OutcomeHit
	}
	return t.fillLocked(string(key), owner)
}

// fillLocked makes a miss of key a fill, the one in progress or a new one.
func (t *Table[V]) fillLocked(key, owner string) (v V, f *Fill[V], how Outcome) {
	if f = t.fills[key]; f != nil {
		t.counts.Coalesced.Inc()
		return v, f, OutcomeCoalesced
	}
	f = &Fill[V]{t: t, key: key, owner: owner, gen: t.gen, done: make(chan struct{})}
	t.fills[key] = f
	t.counts.Misses.Inc()
	return v, f, OutcomeMiss
}

// GetOrFill returns key's fresh value, or runs fill and keeps what it
// returns until the expiry it returns (Keep). Concurrent misses of one key
// share one fill (Claim); a failed one ends as Fail says.
func (t *Table[V]) GetOrFill(key, owner string, fill func() (V, time.Time, error)) (V, Outcome, error) {
	if v, ok := t.Get(key); ok {
		return v, OutcomeHit, nil
	}
	if t.raced != nil {
		t.raced()
	}
	// A fill that ended since the lookup has left its value behind.
	now := t.clock.Now()
	t.mu.Lock()
	v, ok := t.hitLocked(t.items[key], now, nil)
	var f *Fill[V]
	how := OutcomeHit
	if !ok {
		v, f, how = t.fillLocked(key, owner)
	}
	t.mu.Unlock()
	var err error
	switch how {
	case OutcomeCoalesced:
		v, _, err = f.Wait()
	case OutcomeMiss:
		var expires time.Time
		if v, expires, err = fill(); err != nil {
			return f.Fail(err)
		}
		f.Keep(v, expires)
	}
	return v, how, err
}

// Fill is a miss of a Table being filled, the repo's one singleflight: its
// leader ends it once, with Keep, Pass or Fail, and the callers that joined
// it wait for that, in Wait or through OnDone.
type Fill[V any] struct {
	t          *Table[V]
	key, owner string
	gen        uint64 // the table generation the fill began in
	done       chan struct{}
	wake       []func() // guarded by t.mu
	ended      bool     // guarded by t.mu
	v          V
	passed     bool
	err        error
}

// end retires the fill: the key is free, Wait returns, and the OnDone funcs
// run on this goroutine.
func (f *Fill[V]) end(v V, passed bool, err error) {
	f.v, f.passed, f.err = v, passed, err
	f.t.mu.Lock()
	delete(f.t.fills, f.key)
	wake := f.wake
	f.wake, f.ended = nil, true
	f.t.mu.Unlock()
	close(f.done) // outside every lock
	for _, fn := range wake {
		fn()
	}
}

// Keep ends the fill with v, kept until expires — unless that has passed,
// or an InvalidateOwner or Flush since the fill began may have made v stale.
func (f *Fill[V]) Keep(v V, expires time.Time) {
	f.t.put(f.key, f.owner, v, expires, &f.gen)
	f.end(v, false, nil)
}

// Pass ends the fill with v kept nowhere: it is incomplete (a reply its
// source flagged partial), and the next miss must ask again.
func (f *Fill[V]) Pass(v V) { f.end(v, true, nil) }

// Fail ends the fill without a value: a ServeStale table serves the expired
// one, if resident, to all (OutcomeStale); otherwise all get err.
func (f *Fill[V]) Fail(err error) (V, Outcome, error) {
	v, ok := f.t.stale(f.key)
	if !ok {
		f.end(v, false, err)
		return v, OutcomeMiss, err
	}
	f.t.counts.StaleServed.Inc()
	f.end(v, false, nil)
	return v, OutcomeStale, nil
}

// Wait blocks until the fill has ended and returns what it ended with;
// passed: its leader ended it with Pass.
func (f *Fill[V]) Wait() (v V, passed bool, err error) {
	<-f.done
	return f.v, f.passed, f.err
}

// OnDone has fn run once the fill has ended: at once if it has, else on the
// goroutine that ends it, so fn must not block. Wait then returns at once.
func (f *Fill[V]) OnDone(fn func()) {
	f.t.mu.Lock()
	if !f.ended {
		f.wake = append(f.wake, fn)
		f.t.mu.Unlock()
		return
	}
	f.t.mu.Unlock()
	fn()
}

// stale returns key's resident value, expired or not, on a ServeStale table.
func (t *Table[V]) stale(key string) (v V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if it := t.items[key]; it != nil && t.serveStale {
		return it.Value, true
	}
	return v, false
}

// Put keeps v under key, grouped under owner, until expires. A value already
// expired is not kept (nor does it displace the resident one).
func (t *Table[V]) Put(key, owner string, v V, expires time.Time) {
	t.put(key, owner, v, expires, nil)
}

// put is Put that, given the generation a fill began in, keeps nothing once
// an InvalidateOwner or Flush has run since.
func (t *Table[V]) put(key, owner string, v V, expires time.Time, since *uint64) {
	if !expires.After(t.clock.Now()) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if since != nil && *since != t.gen {
		return
	}
	if it := t.items[key]; it != nil {
		it.Owner, it.Value, it.Expires, it.Referenced = owner, v, expires, true
		return
	}
	for t.max > 0 && len(t.items) >= t.max {
		t.evictLocked()
	}
	it := &slot[V]{item: item[V]{Key: key, Owner: owner, Value: v, Expires: expires, Referenced: true}}
	t.items[key] = it
	if n := len(t.free); n > 0 {
		it.pos = t.free[n-1]
		t.free = t.free[:n-1]
		t.ring[it.pos] = it
	} else {
		it.pos = len(t.ring)
		t.ring = append(t.ring, it)
	}
}

// evictLocked runs one CLOCK sweep: referenced keys get a second chance,
// the first cold one goes. Hits set reference bits under mu too, so the
// sweep ends within two turns of the ring.
func (t *Table[V]) evictLocked() {
	for {
		it := t.ring[t.hand]
		t.hand = (t.hand + 1) % len(t.ring)
		switch {
		case it == nil:
		case it.Referenced:
			it.Referenced = false
		default:
			t.removeLocked(it)
			t.counts.Evicted.Inc()
			return
		}
	}
}

func (t *Table[V]) removeLocked(it *slot[V]) {
	delete(t.items, it.Key)
	t.ring[it.pos] = nil
	t.free = append(t.free, it.pos)
}

// InvalidateOwner drops every key belonging to owner or to an owner variant
// "owner|…" and returns how many went.
func (t *Table[V]) InvalidateOwner(owner string) int {
	if owner == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	n := 0
	prefix := owner + "|"
	for _, it := range t.items {
		if it.Owner == owner || strings.HasPrefix(it.Owner, prefix) {
			t.removeLocked(it)
			n++
		}
	}
	t.counts.Invalidated.Add(int64(n))
	return n
}

// Flush drops everything.
func (t *Table[V]) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.items = map[string]*slot[V]{}
	t.ring, t.free, t.hand = nil, nil, 0
	t.gen++
}

// Len returns the resident key count, fresh or not.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// each calls fn with every resident value, fresh or not, in no order, under
// the table's lock.
func (t *Table[V]) each(fn func(item[V])) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, it := range t.items {
		fn(it.item)
	}
}
