package grrp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/softstate"
)

func stormMessages(now time.Time, n int) []*Message {
	msgs := make([]*Message, n)
	for i := range msgs {
		msgs[i] = &Message{
			Type:       TypeRegister,
			ServiceURL: fmt.Sprintf("sim://h%06d-node:389", i),
			MDSType:    "gris",
			SuffixDN:   fmt.Sprintf("hn=h%06d, o=grid", i),
			IssuedAt:   now,
			ValidUntil: now.Add(time.Hour),
		}
	}
	return msgs
}

func TestIngestBatch(t *testing.T) {
	clock := softstate.NewFakeClock()
	r := NewReceiver(clock)
	defer r.Close()
	now := clock.Now()

	msgs := stormMessages(now, 10)
	// Poison two: one stale, one refused by policy.
	msgs[3].ValidUntil = now.Add(-time.Minute)
	r.Accept = func(m *Message, _ *gsi.Credential) bool { return m.ServiceURL != msgs[7].ServiceURL }

	if got := r.IngestBatch(msgs); got != 8 {
		t.Fatalf("accepted %d, want 8", got)
	}
	if r.Registry.Len() != 8 {
		t.Fatalf("live %d, want 8", r.Registry.Len())
	}
	if r.Rejected() != 2 {
		t.Fatalf("rejected %d, want 2", r.Rejected())
	}
	// Payloads round-trip like single ingest.
	it, ok := r.Registry.Get(msgs[0].ServiceURL)
	if !ok {
		t.Fatal("msg 0 missing")
	}
	if m := it.Payload.(*Message); m.SuffixDN != msgs[0].SuffixDN {
		t.Fatalf("payload suffix %q, want %q", m.SuffixDN, msgs[0].SuffixDN)
	}
}

// TestStartFanoutReplicates: one registration sustained toward K owner
// shards, each stream independently stoppable — the replication path of
// the sharded directory tier.
func TestStartFanoutReplicates(t *testing.T) {
	clock := softstate.NewFakeClock()
	var mu sync.Mutex
	counts := map[string]int{}
	g := NewRegistrar(TransportFunc(func(to string, _ []byte) error {
		mu.Lock()
		counts[to]++
		mu.Unlock()
		return nil
	}), clock)
	defer g.StopAll()

	reg := Registration{
		Message:  Message{Type: TypeRegister, ServiceURL: "sim://h0-node:389"},
		Interval: 10 * time.Second,
		TTL:      30 * time.Second,
	}
	owners := []string{"s1", "s4"}
	g.StartFanout(reg, owners)
	// Sent counts a message before its transport call returns, so wait on
	// what the transport saw.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return counts["s1"] >= 1 && counts["s4"] >= 1
	})

	g.StopFanout(reg, owners)
	base := g.Sent()
	clock.Advance(time.Minute)
	time.Sleep(20 * time.Millisecond)
	if g.Sent() != base {
		t.Error("streams kept sending after StopFanout")
	}
}

// BenchmarkIngestStorm compares the two ingest paths: one-at-a-time Ingest
// pays a registry transaction (lock, feed call, sweep reschedule) per
// message; IngestBatch pays one per storm.
func BenchmarkIngestStorm(b *testing.B) {
	const storm = 1000
	run := func(b *testing.B, batched bool) {
		clock := softstate.NewFakeClock()
		r := NewReceiver(clock)
		defer r.Close()
		msgs := stormMessages(clock.Now(), storm)
		b.ResetTimer()
		for i := 0; i < b.N; i += storm {
			if batched {
				r.IngestBatch(msgs)
			} else {
				for _, m := range msgs {
					r.Ingest(m)
				}
			}
			// Touch the live view like a directory serving queries between
			// storms: the sequential path re-sorts it per message epoch.
			r.Registry.Live()
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, false) })
	b.Run("batched", func(b *testing.B) { run(b, true) })
}
