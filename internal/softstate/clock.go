// Package softstate implements the time-to-live registry semantics at the
// heart of GRRP (§4.3 of the paper): state established by a notification is
// discarded unless refreshed by a stream of subsequent notifications. The
// registry is the building block for GIIS provider indices, GRIS caches,
// and the unreliable failure detector.
//
// All timing flows through the Clock interface so that simulations and
// tests drive expiry deterministically; production code passes RealClock.
package softstate

import (
	"sync"
	"time"
)

// Clock supplies current time and timer channels. Implementations must be
// safe for concurrent use.
type Clock interface {
	Now() time.Time
	// After behaves like time.After.
	After(d time.Duration) <-chan time.Time
	// NewTimer is After for a wait that usually ends before its timer does:
	// stopping the timer releases it then, where an After timer stays until
	// it fires.
	NewTimer(d time.Duration) Timer
}

// Timer is a Clock's stoppable timer.
type Timer interface {
	// C fires once, when the timer's duration has passed.
	C() <-chan time.Time
	// Stop releases the timer; it reports whether the timer had not fired.
	Stop() bool
}

// RealClock adapts the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// After defers to time.After.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer defers to time.NewTimer.
func (RealClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// FakeClock is a manually advanced clock for deterministic tests and
// discrete-time simulations.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a fake clock starting at a fixed, arbitrary epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that fires once Advance moves the clock past d.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := c.now.Add(d)
	if d <= 0 {
		ch <- c.now //mdslint:ignore lockcheck send on buffered chan, cap 1, freshly made: cannot block
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: at, ch: ch})
	return ch
}

// NewTimer is After with a Stop that drops the waiter, so a stopped timer
// never fires and leaves nothing behind.
func (c *FakeClock) NewTimer(d time.Duration) Timer {
	return &fakeTimer{clock: c, ch: c.After(d)}
}

type fakeTimer struct {
	clock *FakeClock
	ch    <-chan time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.waiters {
		if w.ch == t.ch {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock forward, firing any timers that come due.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var remaining []fakeWaiter
	var due []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	c.waiters = remaining
	now := c.now
	c.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}
