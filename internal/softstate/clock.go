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
	// AfterFunc behaves like time.AfterFunc: f runs once d has passed. The
	// Timer re-arms it, so a wait that recurs keeps one timer for good
	// where After would make one per wait.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is an AfterFunc timer (*time.Timer is one).
type Timer interface {
	// Reset re-arms the timer to call its func once d has passed; it
	// reports whether the timer was armed.
	Reset(d time.Duration) bool
	// Stop disarms the timer; it reports whether that kept the func from
	// being called (false: it was not armed, or its call has begun).
	Stop() bool
}

// RealClock adapts the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// After defers to time.After.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc defers to time.AfterFunc.
func (RealClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// FakeClock is a manually advanced clock for deterministic tests and
// discrete-time simulations.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeTimer
}

// fakeTimer is one armed wait: it sends on ch (After) or calls f
// (AfterFunc) when it comes due.
type fakeTimer struct {
	clock *FakeClock
	at    time.Time
	ch    chan time.Time
	f     func()
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
	if d <= 0 {
		ch <- c.now //mdslint:ignore lockcheck send on buffered chan, cap 1, freshly made: cannot block
		return ch
	}
	c.waiters = append(c.waiters, &fakeTimer{clock: c, at: c.now.Add(d), ch: ch})
	return ch
}

// AfterFunc arms a timer that calls f on the goroutine of the Advance that
// moves the clock past d, after Advance has released the clock (so f may use
// it). With d <= 0 the next Advance calls it.
func (c *FakeClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &fakeTimer{clock: c, f: f}
	t.Reset(d)
	return t
}

// Reset re-arms t for d from the clock's present time.
func (t *fakeTimer) Reset(d time.Duration) bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	armed := c.disarmLocked(t)
	t.at = c.now.Add(d)
	c.waiters = append(c.waiters, t)
	return armed
}

// Stop disarms t; a stopped timer never fires and leaves nothing behind.
func (t *fakeTimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disarmLocked(t)
}

// disarmLocked drops t from the waiters, reporting whether it was there.
func (c *FakeClock) disarmLocked(t *fakeTimer) bool {
	for i, w := range c.waiters {
		if w == t {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Pending reports how many timers are armed, so a test can advance the
// clock once the code under test waits on it, not before.
func (c *FakeClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// Advance moves the clock forward, firing any timers that come due.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var remaining, due []*fakeTimer
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
		if w.f != nil {
			w.f()
		} else {
			w.ch <- now
		}
	}
}
