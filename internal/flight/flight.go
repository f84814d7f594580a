// Package flight is the repo's one singleflight, under qcache.Table's fills:
// concurrent callers with the same key share a single execution of an
// expensive fill (a provider invocation, a chained fan-out, a Bloom-summary
// fetch) instead of stampeding the source behind it.
package flight

import (
	"sync"

	"mds2/internal/obs"
)

// Group coalesces concurrent Do calls per key. The zero value is ready to
// use.
type Group[V any] struct {
	// Joined, when set, counts callers that joined another caller's flight.
	// It moves when the caller parks, not when it is released, so a pile-up
	// behind a stuck fill shows on the metric while it is happening.
	Joined *obs.Counter

	mu      sync.Mutex
	flights map[string]*flight[V]
}

// flight is one in-progress fn that later callers with the same key wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do runs fn once per key at a time. The first caller (the leader) runs fn;
// callers arriving before it returns wait and receive the leader's result
// with shared set. Do caches nothing: fn must re-check its own cache first
// (an earlier leader may have filled it between the caller's miss and this
// call) and publish there before returning, because the flight is retired
// the moment fn returns and the next miss starts a fresh one.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if f := g.flights[key]; f != nil {
		g.mu.Unlock()
		g.Joined.Inc()
		<-f.done
		return f.v, true, f.err
	}
	if g.flights == nil {
		g.flights = map[string]*flight[V]{}
	}
	f := &flight[V]{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.v, f.err = fn()
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done) // outside every lock
	return f.v, false, f.err
}
