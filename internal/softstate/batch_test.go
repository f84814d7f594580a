package softstate

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRefreshBatch(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()

	feed := &feedLog{}
	r.Observe(feed)

	batch := []Refreshment{
		{Key: "a", Payload: 1, TTL: time.Minute},
		{Key: "b", Payload: 2, TTL: time.Minute},
		{Key: "bad", Payload: 3, TTL: 0}, // non-positive TTL skipped
		{Key: "c", Payload: 4, TTL: 2 * time.Minute},
	}
	if got := r.RefreshBatch(batch); got != 3 {
		t.Fatalf("accepted %d, want 3", got)
	}
	if r.Len() != 3 {
		t.Fatalf("live %d, want 3", r.Len())
	}
	// One feed call for the whole batch, one record per accepted item.
	if want := []string{"refresh a", "refresh b", "refresh c"}; feed.calls != 1 || !reflect.DeepEqual(feed.seen, want) {
		t.Fatalf("feed got %d calls carrying %v, want 1 carrying %v", feed.calls, feed.seen, want)
	}

	// TTLs are honoured per item.
	clock.Advance(90 * time.Second)
	r.Sweep()
	if r.Len() != 1 {
		t.Fatalf("after 90s: live %d, want 1 (only c)", r.Len())
	}
	if _, ok := r.Get("c"); !ok {
		t.Fatal("c should survive")
	}
}

func TestSetOwnsFiltersRefreshes(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	r.SetOwns(func(key string, _ any) bool { return strings.HasPrefix(key, "mine") })

	if r.Refresh("theirs-1", nil, time.Minute) {
		t.Fatal("unowned key accepted by Refresh")
	}
	if !r.Refresh("mine-1", nil, time.Minute) {
		t.Fatal("owned key refused")
	}
	n := r.RefreshBatch([]Refreshment{
		{Key: "mine-2", TTL: time.Minute},
		{Key: "theirs-2", TTL: time.Minute},
	})
	if n != 1 || r.Len() != 2 {
		t.Fatalf("batch accepted %d (live %d), want 1 (live 2)", n, r.Len())
	}
	if got := r.NotOwnedTotal(); got != 2 {
		t.Fatalf("NotOwnedTotal = %d, want 2", got)
	}
}

// TestEarliestExpiryCache drives the cached-bound fast path through the
// cases that could go stale: extension of the earliest item, removal of the
// earliest item, and re-population after full expiry.
func TestEarliestExpiryCache(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()

	r.Refresh("a", nil, 10*time.Second)
	r.Refresh("b", nil, 20*time.Second)

	// Extend the earliest item: the bound is now conservative but must not
	// expire anything early.
	r.Refresh("a", nil, time.Minute)
	clock.Advance(15 * time.Second)
	r.Sweep()
	if r.Len() != 2 {
		t.Fatalf("nothing should expire at 15s, live=%d", r.Len())
	}
	clock.Advance(10 * time.Second) // t=25s: b (expires t=20s) goes
	r.Sweep()
	if _, ok := r.Get("b"); ok {
		t.Fatal("b should have expired")
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("a should be live until t=60s")
	}

	// Remove the only item; an empty table must not hold a stale bound.
	r.Remove("a")
	if r.Len() != 0 {
		t.Fatal("registry should be empty")
	}
	r.Refresh("c", nil, 5*time.Second)
	clock.Advance(6 * time.Second)
	if r.Len() != 0 {
		t.Fatal("c should expire on schedule after repopulation")
	}
}

// BenchmarkRefreshStorm measures per-refresh cost with a large live table —
// the case the cached earliest bound converts from O(n) scans per call to
// O(1).
func BenchmarkRefreshStorm(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("live=%d", n), func(b *testing.B) {
			clock := NewFakeClock()
			r := NewRegistry(clock)
			defer r.Close()
			for i := 0; i < n; i++ {
				r.Refresh(fmt.Sprintf("k%06d", i), nil, time.Hour)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Refresh(fmt.Sprintf("k%06d", i%n), nil, time.Hour)
			}
		})
	}
}

// BenchmarkRefreshBatch compares one-at-a-time refreshes against the
// batched path for a storm of distinct keys (the directory ingest case).
func BenchmarkRefreshBatch(b *testing.B) {
	const storm = 1000
	keys := make([]string, storm)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%06d", i)
	}
	b.Run("sequential", func(b *testing.B) {
		clock := NewFakeClock()
		r := NewRegistry(clock)
		defer r.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Refresh(keys[i%storm], nil, time.Hour)
		}
	})
	b.Run("batched", func(b *testing.B) {
		clock := NewFakeClock()
		r := NewRegistry(clock)
		defer r.Close()
		batch := make([]Refreshment, storm)
		for i, k := range keys {
			batch[i] = Refreshment{Key: k, TTL: time.Hour}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += storm {
			r.RefreshBatch(batch)
		}
	})
}
