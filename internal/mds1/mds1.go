// Package mds1 implements the centralized baseline the paper supersedes
// (§11.1): the MDS-1 strategy of "collecting all information into a
// database", against which the distributed MDS-2 architecture is compared.
// Every resource runs a pusher that periodically uploads its complete
// description to one central directory; queries are answered entirely from
// that database. The design "inevitably limited scalability and
// reliability": experiment E4 measures its update load and staleness
// against federated MDS-2 as provider count grows.
package mds1

import (
	"fmt"
	"sync"
	"time"

	"mds2/internal/gris"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// Central is the single directory holding everyone's information: pushers
// upload into its Store, and Search answers every query from it.
type Central struct {
	Store *ldap.Store
	clock softstate.Clock

	// Updates counts push operations; EntriesPushed counts entries
	// uploaded (the update-load metric of E4).
	Updates       obs.Counter
	EntriesPushed obs.Counter
}

// New creates an empty central directory.
func New(clock softstate.Clock) *Central {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &Central{Store: ldap.NewStore(), clock: clock}
}

// Apply replaces the subtree rooted at suffix with the pushed entries.
// Each entry is stamped with its upload time so staleness is measurable.
func (c *Central) Apply(suffix ldap.DN, entries []*ldap.Entry) error {
	now := c.clock.Now()
	stamp := now.UTC().Format(time.RFC3339Nano)
	stamped := make([]*ldap.Entry, len(entries))
	for i, e := range entries {
		cp := e.Clone()
		cp.Set("pushedat", stamp)
		stamped[i] = cp
	}
	c.Store.RemoveSubtree(suffix)
	if err := c.Store.PutAll(stamped); err != nil {
		return err
	}
	c.Updates.Inc()
	c.EntriesPushed.Add(int64(len(entries)))
	return nil
}

// Search queries the central database.
func (c *Central) Search(base ldap.DN, scope ldap.Scope, filter *ldap.Filter) []*ldap.Entry {
	return c.Store.Find(base, scope, filter)
}

// Staleness returns the age of an entry's data at query time, parsed from
// its push stamp.
func (c *Central) Staleness(e *ldap.Entry) (time.Duration, bool) {
	s := e.First("pushedat")
	if s == "" {
		return 0, false
	}
	at, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, false
	}
	return c.clock.Now().Sub(at), true
}

// Pusher periodically collects a resource's complete description from its
// provider backends and uploads it — the MDS-1 per-resource agent.
type Pusher struct {
	Suffix   ldap.DN
	Backends []gris.Backend
	Target   *Central
	Interval time.Duration

	clock softstate.Clock

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// NewPusher builds a pusher for one resource.
func NewPusher(suffix ldap.DN, backends []gris.Backend, target *Central,
	interval time.Duration, clock softstate.Clock) *Pusher {
	if clock == nil {
		clock = softstate.RealClock{}
	}
	return &Pusher{Suffix: suffix, Backends: backends, Target: target,
		Interval: interval, clock: clock, stop: make(chan struct{})}
}

// PushOnce collects and uploads immediately.
func (p *Pusher) PushOnce() error {
	q := &gris.Query{Base: p.Suffix, Scope: ldap.ScopeWholeSubtree, Now: p.clock.Now()}
	var all []*ldap.Entry
	for _, b := range p.Backends {
		entries, err := b.Entries(q)
		if err != nil {
			// Skip failed providers; push what is available.
			continue
		}
		all = append(all, entries...)
	}
	if len(all) == 0 {
		return fmt.Errorf("mds1: resource %q produced no entries", p.Suffix)
	}
	return p.Target.Apply(p.Suffix, all)
}

// Start launches the periodic push loop (first push immediate).
func (p *Pusher) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			_ = p.PushOnce() // a failed push is retried next interval
			select {
			case <-p.stop:
				return
			case <-p.clock.After(p.Interval):
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit.
func (p *Pusher) Stop() {
	p.mu.Lock()
	if !p.stopped {
		p.stopped = true
		close(p.stop)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
