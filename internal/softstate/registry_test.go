package softstate

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRefreshEstablishesAndExpires(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()

	if joined := r.Refresh("p1", "payload", 30*time.Second); !joined {
		t.Error("first refresh should report joined")
	}
	if joined := r.Refresh("p1", "payload", 30*time.Second); joined {
		t.Error("second refresh should not report joined")
	}
	if it, ok := r.Get("p1"); !ok || it.Payload != "payload" || it.Refreshes != 2 {
		t.Fatalf("get = %+v, %v", it, ok)
	}
	clock.Advance(29 * time.Second)
	if _, ok := r.Get("p1"); !ok {
		t.Fatal("should survive until TTL")
	}
	clock.Advance(2 * time.Second)
	if _, ok := r.Get("p1"); ok {
		t.Fatal("should expire after TTL")
	}
	// Re-registration after expiry counts as a fresh join.
	if joined := r.Refresh("p1", "v2", 30*time.Second); !joined {
		t.Error("post-expiry refresh should report joined")
	}
}

func TestRefreshExtendsLifetime(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	r.Refresh("p", nil, 10*time.Second)
	for i := 0; i < 10; i++ {
		clock.Advance(8 * time.Second)
		r.Refresh("p", nil, 10*time.Second)
	}
	if _, ok := r.Get("p"); !ok {
		t.Fatal("steady refresh stream should keep entry alive")
	}
	clock.Advance(11 * time.Second)
	if _, ok := r.Get("p"); ok {
		t.Fatal("stopping the stream should expire the entry")
	}
}

func TestZeroTTLRejected(t *testing.T) {
	r := NewRegistry(NewFakeClock())
	defer r.Close()
	if r.Refresh("p", nil, 0) {
		t.Error("zero TTL should be rejected")
	}
	if r.Len() != 0 {
		t.Error("no state should be established")
	}
}

func TestRemove(t *testing.T) {
	r := NewRegistry(NewFakeClock())
	defer r.Close()
	r.Refresh("p", nil, time.Minute)
	if !r.Remove("p") {
		t.Error("remove live entry")
	}
	if r.Remove("p") {
		t.Error("remove absent entry")
	}
}

func TestLiveSnapshotSorted(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	for _, k := range []string{"c", "a", "b"} {
		r.Refresh(k, nil, time.Minute)
	}
	r.Refresh("dead", nil, time.Second)
	clock.Advance(2 * time.Second)
	live := r.Live()
	if len(live) != 3 {
		t.Fatalf("live = %d", len(live))
	}
	for i, want := range []string{"a", "b", "c"} {
		if live[i].Key != want {
			t.Errorf("live[%d] = %q", i, live[i].Key)
		}
	}
}

// TestEvents: the feed carries refresh, expire and remove in the order the
// registry applied them.
func TestEvents(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	feed := &feedLog{}
	r.Observe(feed)

	r.Refresh("p", 1, time.Second)
	r.Refresh("p", 2, time.Second)
	clock.Advance(2 * time.Second)
	r.Sweep()
	r.Refresh("q", 3, time.Minute)
	r.Remove("q")

	want := []string{"refresh p", "refresh p", "expire p", "refresh q", "remove q"}
	if !reflect.DeepEqual(feed.seen, want) {
		t.Fatalf("feed saw %v, want %v", feed.seen, want)
	}
}

// awaitExpiry waits for the background sweep to feed p's expiry.
func awaitExpiry(t *testing.T, feed feedChan) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case rec := <-feed:
			if rec == "expire p" {
				return
			}
		case <-deadline:
			t.Fatal("background sweep did not fire")
		}
	}
}

func TestBackgroundSweepWithFakeClock(t *testing.T) {
	clock := NewFakeClock()
	r := NewRegistry(clock)
	defer r.Close()
	feed := make(feedChan, 2) // p's refresh and its expiry
	r.Observe(feed)
	r.Refresh("p", nil, 5*time.Second)
	// Advance past expiry; the scheduled background sweep should feed the
	// expiry without anyone calling Get/Sweep.
	clock.Advance(6 * time.Second)
	awaitExpiry(t, feed)
}

func TestBackgroundSweepRealClock(t *testing.T) {
	r := NewRegistry(RealClock{})
	defer r.Close()
	feed := make(feedChan, 2) // p's refresh and its expiry
	r.Observe(feed)
	r.Refresh("p", nil, 30*time.Millisecond)
	awaitExpiry(t, feed)
}

func TestConcurrentRefreshers(t *testing.T) {
	r := NewRegistry(RealClock{})
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("p%d", g%4)
			for i := 0; i < 200; i++ {
				r.Refresh(key, g, time.Minute)
				r.Get(key)
				r.Live()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 4 {
		t.Errorf("live = %d, want 4", r.Len())
	}
}

func TestCloseStopsEverything(t *testing.T) {
	r := NewRegistry(NewFakeClock())
	feed := &feedLog{}
	r.Observe(feed)
	r.Refresh("p", nil, time.Minute)
	r.Close()
	r.Close() // idempotent
	if r.Refresh("q", nil, time.Minute) {
		t.Error("refresh after close should fail")
	}
	if n := r.RefreshBatch([]Refreshment{{Key: "q", TTL: time.Minute}}); n != 0 {
		t.Errorf("batch after close accepted %d", n)
	}
	if want := []string{"refresh p"}; !reflect.DeepEqual(feed.seen, want) {
		t.Errorf("feed saw %v, want %v", feed.seen, want)
	}
}

// TestExpiryMonotonicityProperty: for any TTL and any advance pattern, an
// entry is live iff the sum of advances since its last refresh is < TTL.
func TestExpiryMonotonicityProperty(t *testing.T) {
	f := func(ttlSec uint8, steps []uint8) bool {
		ttl := time.Duration(ttlSec%60+1) * time.Second
		clock := NewFakeClock()
		r := NewRegistry(clock)
		defer r.Close()
		r.Refresh("k", nil, ttl)
		var since time.Duration
		for _, s := range steps {
			step := time.Duration(s%10) * time.Second
			clock.Advance(step)
			since += step
			_, live := r.Get("k")
			if want := since < ttl; live != want {
				return false
			}
			if !live {
				return true // expired stays expired; done
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFakeClockAfter(t *testing.T) {
	c := NewFakeClock()
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(5 * time.Second)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("timer did not fire")
	}
	// Non-positive durations fire immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("zero-duration timer should be ready")
	}
}

// TestFakeClockAfterFunc: an AfterFunc timer calls its func on the Advance
// that reaches its deadline, once; Reset re-arms it from the present and
// Stop disarms it, each reporting whether it was armed.
func TestFakeClockAfterFunc(t *testing.T) {
	c := NewFakeClock()
	calls := 0
	tm := c.AfterFunc(10*time.Second, func() {
		calls++
		c.Now() // the clock is free to use from the func
	})
	c.Advance(9 * time.Second)
	if calls != 0 {
		t.Fatal("fired before its deadline")
	}
	c.Advance(time.Second)
	c.Advance(time.Hour)
	if calls != 1 {
		t.Fatalf("%d calls after the deadline, want 1", calls)
	}
	if tm.Stop() {
		t.Error("Stop of a fired timer reported it armed")
	}
	if tm.Reset(10 * time.Second) {
		t.Error("Reset of a fired timer reported it armed")
	}
	c.Advance(5 * time.Second)
	if !tm.Reset(10 * time.Second) { // its deadline moves 5 s later
		t.Error("Reset of an armed timer reported it disarmed")
	}
	c.Advance(9 * time.Second)
	if calls != 1 {
		t.Fatal("Reset did not move the deadline")
	}
	c.Advance(time.Second)
	if calls != 2 {
		t.Fatalf("%d calls after the re-armed deadline, want 2", calls)
	}
	tm.Reset(time.Second)
	if !tm.Stop() {
		t.Error("Stop of an armed timer reported it disarmed")
	}
	c.Advance(time.Hour)
	if calls != 2 {
		t.Error("a stopped timer fired")
	}
}

func BenchmarkRefresh(b *testing.B) {
	r := NewRegistry(RealClock{})
	defer r.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Refresh("provider-42", nil, time.Minute)
	}
}

func BenchmarkRefreshManyKeys(b *testing.B) {
	r := NewRegistry(RealClock{})
	defer r.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("provider-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Refresh(keys[i%len(keys)], nil, time.Minute)
	}
}
