package softstate

import (
	"sort"
	"sync"
	"time"
)

// Item is a live registry entry.
type Item struct {
	Key       string
	Payload   any
	ExpiresAt time.Time
	// Refreshes counts notifications received for this key since it joined.
	Refreshes int
	// JoinedAt records when the key last transitioned to live.
	JoinedAt time.Time
	// LastRefresh records when the most recent refresh arrived.
	LastRefresh time.Time
	// Recovered marks an item restored from persistence and not yet
	// confirmed by a post-boot refresh; cleared on the first refresh.
	Recovered bool
}

// Registry is a TTL-keyed soft-state table. Entries are established and kept
// alive solely by Refresh calls; once a TTL elapses without refresh the
// entry expires and the transition feed (Journal) is told. This is exactly
// the directory behaviour of §4.3: "after some time without a refresh, the
// directory can assume the provider has become unavailable, and purge
// knowledge of it".
type Registry struct {
	clock Clock

	mu    sync.Mutex
	items map[string]*Item
	// sweepGen invalidates scheduled sweeps that have been superseded;
	// sweepAt is when the currently scheduled sweep fires (zero: none).
	sweepGen uint64
	sweepAt  time.Time
	closed   bool
	// expiredTotal counts entries that have ever expired (monotonic; the
	// obs registry samples it as a counter without importing this package's
	// consumers into a cycle).
	expiredTotal uint64
	// earliest is a lower bound on every live item's ExpiresAt (zero:
	// unknown, recompute on next expiry pass). It lets expireLocked answer
	// "nothing can have expired yet" without scanning the table, which turns
	// a refresh storm from O(n) scans per refresh — O(n²) overall — into
	// O(1) per refresh.
	earliest time.Time
	// owns, when set, is the shard-ownership admission check: refreshes for
	// keys this node does not own are refused and counted in notOwned.
	owns     func(key string, payload any) bool
	notOwned uint64
	// observers consume the transition feed — see Journal; invoked under
	// mu. one is the scratch batch for a single-record transition.
	observers []Journal
	one       [1]JournalRecord
}

// NewRegistry returns a registry driven by the given clock.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = RealClock{}
	}
	return &Registry{clock: clock, items: map[string]*Item{}}
}

// SetOwns installs a shard-ownership admission check: Refresh and
// RefreshBatch refuse (and count) keys for which owns reports false. A nil
// check accepts everything. Install before the registry receives traffic.
func (r *Registry) SetOwns(owns func(key string, payload any) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.owns = owns
}

// NotOwnedTotal returns the number of refreshes refused by the SetOwns
// check.
func (r *Registry) NotOwnedTotal() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notOwned
}

// Refresh establishes or renews key with the given TTL and payload,
// returning true if the key newly joined (was absent or expired).
// A non-positive TTL is rejected, returning false without establishing
// state, because it could never be observed live.
func (r *Registry) Refresh(key string, payload any, ttl time.Duration) bool {
	if ttl <= 0 {
		return false
	}
	now := r.clock.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	if r.owns != nil && !r.owns(key, payload) {
		r.notOwned++
		r.mu.Unlock()
		return false
	}
	r.expireLocked(now)
	joined := r.refreshLocked(key, payload, ttl, now)
	if r.fedLocked() {
		r.journalOneLocked(JournalRefresh, *r.items[key])
	}
	r.scheduleSweepLocked()
	r.mu.Unlock()
	return joined
}

// refreshLocked applies one refresh; the caller feeds the journal and
// schedules the sweep (batched across a RefreshBatch).
func (r *Registry) refreshLocked(key string, payload any, ttl time.Duration, now time.Time) bool {
	it, exists := r.items[key]
	joined := !exists
	if joined {
		it = &Item{Key: key, JoinedAt: now}
		r.items[key] = it
	}
	it.Payload = payload
	it.ExpiresAt = now.Add(ttl)
	it.Refreshes++
	it.LastRefresh = now
	it.Recovered = false // first post-boot refresh confirms a recovered item
	if r.earliest.IsZero() || it.ExpiresAt.Before(r.earliest) {
		r.earliest = it.ExpiresAt
	}
	return joined
}

// Refreshment is one element of a RefreshBatch.
type Refreshment struct {
	Key     string
	Payload any
	TTL     time.Duration
}

// RefreshBatch applies a batch of refreshes under one lock acquisition,
// one expiry pass, one journal call and one sweep reschedule — the
// amortization that keeps a registration storm from rescanning the table
// once per message. It returns the number of accepted refreshes. The
// journal call carries one record per accepted item, so consumers see every
// membership change.
func (r *Registry) RefreshBatch(batch []Refreshment) int {
	now := r.clock.Now()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	r.expireLocked(now)
	accepted := 0
	fed := r.fedLocked()
	var journaled []JournalRecord
	if fed {
		journaled = make([]JournalRecord, 0, len(batch))
	}
	for _, b := range batch {
		if b.TTL <= 0 {
			continue
		}
		if r.owns != nil && !r.owns(b.Key, b.Payload) {
			r.notOwned++
			continue
		}
		r.refreshLocked(b.Key, b.Payload, b.TTL, now)
		if fed {
			journaled = append(journaled, JournalRecord{Op: JournalRefresh, Item: *r.items[b.Key]})
		}
		accepted++
	}
	r.journalLocked(journaled)
	if accepted > 0 {
		r.scheduleSweepLocked()
	}
	r.mu.Unlock()
	return accepted
}

// Remove explicitly deletes a key (soft-state protocols do not require
// this — expiry handles the common case — but invitation revocation and
// administrative removal use it).
func (r *Registry) Remove(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.items[key]; !ok {
		return false
	}
	delete(r.items, key)
	if len(r.items) == 0 {
		// Keep the "zero earliest ⇔ empty table" shape; a stale non-zero
		// bound over an empty table would schedule pointless sweeps.
		r.earliest = time.Time{}
	}
	if r.fedLocked() {
		r.journalOneLocked(JournalRemove, Item{Key: key})
	}
	return true
}

// Get returns the live item for key, if present and unexpired.
func (r *Registry) Get(key string) (Item, bool) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	it, ok := r.items[key]
	if !ok {
		return Item{}, false
	}
	return *it, true
}

// Live returns a copy of all unexpired items, sorted by key.
func (r *Registry) Live() []Item {
	now := r.clock.Now()
	r.mu.Lock()
	r.expireLocked(now)
	out := make([]Item, 0, len(r.items))
	for _, it := range r.items {
		out = append(out, *it)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of live entries.
func (r *Registry) Len() int {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	return len(r.items)
}

// Sweep forces expiry processing now; callers using a FakeClock invoke it
// after advancing time. It returns the keys expired by this call.
func (r *Registry) Sweep() []string {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.expireLocked(now)
}

// Close cancels the background sweep and refuses later refreshes.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.sweepGen++
}

func (r *Registry) expireLocked(now time.Time) []string {
	// Fast path: earliest is a lower bound on all expiries, so nothing can
	// have expired before it. This is what every read and refresh hits in
	// steady state.
	if !r.earliest.IsZero() && now.Before(r.earliest) {
		return nil
	}
	var expired []string
	var nextEarliest time.Time
	for key, it := range r.items {
		if !it.ExpiresAt.After(now) {
			expired = append(expired, key)
			continue
		}
		if nextEarliest.IsZero() || it.ExpiresAt.Before(nextEarliest) {
			nextEarliest = it.ExpiresAt
		}
	}
	r.earliest = nextEarliest
	sort.Strings(expired)
	if r.fedLocked() && len(expired) > 0 {
		recs := make([]JournalRecord, len(expired))
		for i, key := range expired {
			recs[i] = JournalRecord{Op: JournalExpire, Item: Item{Key: key}}
		}
		r.journalLocked(recs)
	}
	for _, key := range expired {
		delete(r.items, key)
	}
	r.expiredTotal += uint64(len(expired))
	return expired
}

// ExpiredTotal returns the number of entries that have ever expired.
func (r *Registry) ExpiredTotal() uint64 {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	return r.expiredTotal
}

// scheduleSweepLocked arranges a background sweep at the earliest expiry so
// that expiries reach the feed promptly even when nobody polls. Each call
// supersedes prior schedules. The cached earliest bound replaces the old
// full-table scan: it may be conservative (earlier than the true minimum
// after an item's expiry was extended), in which case the sweep fires,
// expires nothing, and reschedules at the recomputed bound.
func (r *Registry) scheduleSweepLocked() {
	earliest := r.earliest
	if earliest.IsZero() {
		return
	}
	// If a sweep is already scheduled at or before the new earliest expiry,
	// it will run first and reschedule; spawning another would only leak
	// timer goroutines under high refresh rates.
	if !r.sweepAt.IsZero() && !earliest.Before(r.sweepAt) {
		return
	}
	r.sweepGen++
	gen := r.sweepGen
	r.sweepAt = earliest
	wait := earliest.Sub(r.clock.Now())
	if wait < 0 {
		wait = 0
	}
	timer := r.clock.After(wait)
	go func() {
		<-timer
		r.mu.Lock()
		if r.sweepGen != gen || r.closed {
			r.mu.Unlock()
			return
		}
		r.sweepAt = time.Time{}
		r.expireLocked(r.clock.Now())
		r.scheduleSweepLocked()
		r.mu.Unlock()
	}()
}
