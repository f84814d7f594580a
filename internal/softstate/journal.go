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

// Observe adds a consumer of the transition feed: a view derived from the
// registry (a directory's child table) or the durability log. A consumer
// sees transitions from the point it is installed — a view installed before
// Restore receives the restored items, as refresh records marked Recovered;
// the durability log, attached after the recovery that called Restore, does
// not see the items that came out of it.
func (r *Registry) Observe(j Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observers = append(r.observers, j)
}

// fedLocked reports whether anything consumes the feed, so the transition
// paths skip building records nobody reads.
func (r *Registry) fedLocked() bool { return len(r.observers) > 0 }

// journalLocked forwards a batch to every consumer. Caller holds r.mu.
func (r *Registry) journalLocked(recs []JournalRecord) {
	if len(recs) == 0 {
		return
	}
	for _, o := range r.observers {
		o.JournalRegistry(recs)
	}
}

// journalOneLocked forwards a single transition without allocating a batch.
func (r *Registry) journalOneLocked(op JournalOp, it Item) {
	r.one[0] = JournalRecord{Op: op, Item: it}
	r.journalLocked(r.one[:])
}

// Restore installs recovered items in bulk, without per-item locking — boot
// time only, before traffic. Consumers installed so far see each restored
// item as a refresh record marked Recovered; the durability log is attached
// afterwards, so it is never fed the items its own replay produced. Each
// item keeps its persisted state but its deadline is raised to at least
// now+grace, giving the provider one refresh interval to confirm liveness
// before soft state purges it (the recovery grace window); items already
// lapsed past both bounds are dropped. Restored items are marked Recovered
// until their first post-boot refresh. Keys already present (a refresh beat
// the restore) are left alone. Returns the number of items restored live.
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
		if r.fedLocked() {
			seen = append(seen, JournalRecord{Op: JournalRefresh, Item: cp})
		}
	}
	if restored > 0 {
		r.journalLocked(seen)
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
