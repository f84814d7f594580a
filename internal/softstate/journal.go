package softstate

import "time"

// JournalOp enumerates registry lifecycle transitions worth persisting.
type JournalOp int

// Registry journal operations.
const (
	// JournalRefresh carries the item's full absolute state after a refresh
	// (deadline, counters, payload) — replayable idempotently.
	JournalRefresh JournalOp = iota
	// JournalRemove records an explicit removal; only Item.Key is meaningful.
	JournalRemove
	// JournalExpire records a TTL expiry the registry observed; only
	// Item.Key is meaningful. Persisting expiries keeps a recovered image
	// from resurrecting providers that were already declared dead.
	JournalExpire
)

// JournalRecord is one journaled transition.
type JournalRecord struct {
	Op   JournalOp
	Item Item
}

// Journal consumes the registry's transition feed. Calls are made under
// the registry lock, immediately after the state change, with each batch in
// apply order — so a consumer has seen a refresh before the Refresh that
// caused it returns, and an expiry before the read that noticed it does.
// Implementations must only encode, enqueue or update their own tables:
// never block, never call back into the registry, and never keep recs
// (the registry reuses the slice). The feed has no ack: durability is
// deliberately asynchronous, a lost tail re-converges through the
// protocol's own refresh cycle.
type Journal interface {
	JournalRegistry(recs []JournalRecord)
}

// SetJournal installs j as the registry's durability consumer. Install at
// boot, after Restore and before traffic: it is not told about restored
// items, which came out of its own log.
func (r *Registry) SetJournal(j Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
}

// Observe adds a consumer that keeps a view derived from the registry (a
// directory's child table). Unlike the durability consumer it also receives
// Restore, as refresh records whose items are marked Recovered. Install
// before the registry holds anything.
func (r *Registry) Observe(j Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = append(r.observers, j)
}

// fedLocked reports whether anything consumes the feed, so the transition
// paths skip building records nobody reads.
func (r *Registry) fedLocked() bool { return r.journal != nil || len(r.observers) > 0 }

// journalLocked forwards a batch to every consumer. Caller holds r.mu.
func (r *Registry) journalLocked(recs []JournalRecord) {
	if len(recs) == 0 {
		return
	}
	if r.journal != nil {
		r.journal.JournalRegistry(recs)
	}
	r.observeLocked(recs)
}

func (r *Registry) observeLocked(recs []JournalRecord) {
	for _, o := range r.observers {
		o.JournalRegistry(recs)
	}
}

// journalOneLocked forwards a single transition without allocating a batch.
func (r *Registry) journalOneLocked(op JournalOp, it Item) {
	r.one[0] = JournalRecord{Op: op, Item: it}
	r.journalLocked(r.one[:])
}

// Restore installs recovered items in bulk: no events, no durability
// journaling (observers do see them), no per-item locking — boot time only,
// before traffic. Each item keeps its persisted state but its deadline is
// raised to at least now+grace, giving the provider one refresh interval to
// confirm liveness before soft state purges it (the recovery grace window);
// items already lapsed past both bounds are dropped. Restored items are
// marked Recovered until their first post-boot refresh. Keys already present
// (a refresh beat the restore) are left alone. Returns the number of items
// restored live.
func (r *Registry) Restore(items []Item, grace time.Duration) int {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0
	}
	restored := 0
	var seen []JournalRecord
	for _, it := range items {
		if _, exists := r.items[it.Key]; exists {
			continue
		}
		deadline := it.ExpiresAt
		if g := now.Add(grace); grace > 0 && g.After(deadline) {
			deadline = g
		}
		if !deadline.After(now) {
			continue
		}
		cp := it
		cp.ExpiresAt = deadline
		cp.Recovered = true
		r.items[cp.Key] = &cp
		if r.earliest.IsZero() || deadline.Before(r.earliest) {
			r.earliest = deadline
		}
		restored++
		if len(r.observers) > 0 {
			seen = append(seen, JournalRecord{Op: JournalRefresh, Item: cp})
		}
	}
	if restored > 0 {
		r.observeLocked(seen)
		r.bumpLocked()
		r.scheduleSweepLocked()
	}
	return restored
}

// RecoveredLive returns how many live items are still in the recovered-
// but-unconfirmed state (no refresh since Restore).
func (r *Registry) RecoveredLive() int {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)
	n := 0
	for _, it := range r.items {
		if it.Recovered {
			n++
		}
	}
	return n
}
