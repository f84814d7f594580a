package persist

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// stringCodec persists string payloads verbatim — enough structure for the
// property test to verify payload round-trips.
var stringCodec = PayloadCodec{
	Encode: func(p any) ([]byte, error) {
		s, ok := p.(string)
		if !ok {
			return nil, fmt.Errorf("not a string: %T", p)
		}
		return []byte(s), nil
	},
	Decode: func(b []byte) (any, error) { return string(b), nil },
}

// TestCrashConsistencyProperty drives randomized storms of provider rounds
// and registry operations against a persisted round table + registry,
// crashes without warning, recovers into fresh instances, and requires
// replay(snapshot+WAL) ≡ the pre-crash state. Neither journal is waited on;
// a Barrier before the crash draws the durability line, so equality is
// exact.
func TestCrashConsistencyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashStorm(t, rand.New(rand.NewSource(seed)))
		})
	}
}

func runCrashStorm(t *testing.T, rng *rand.Rand) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	reg := softstate.NewRegistry(clock)
	m, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways,
		SegmentBytes: 4096, Codec: stringCodec})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.Attach(rounds, reg); err != nil {
		t.Fatalf("Attach: %v", err)
	}

	dnPool := make([]string, 24)
	for i := range dnPool {
		dnPool[i] = fmt.Sprintf("hn=h%d, ou=res, o=grid", i)
	}
	backendPool := []string{"static", "dynamic", "storage", "queues", "extra"}
	keyPool := make([]string, 16)
	for i := range keyPool {
		keyPool[i] = fmt.Sprintf("ldap://provider-%d:2135", i)
	}
	randEntry := func() *ldap.Entry {
		e := ldap.NewEntry(mustDN(t, dnPool[rng.Intn(len(dnPool))]))
		e.Add("objectclass", "computer")
		e.Add("load5", fmt.Sprintf("%.2f", rng.Float64()*8))
		if rng.Intn(2) == 0 {
			e.Add("memsize", fmt.Sprintf("%d", 1<<uint(rng.Intn(8))))
		}
		return e
	}
	randRound := func(max int) []*ldap.Entry {
		round := make([]*ldap.Entry, rng.Intn(max+1))
		for j := range round {
			round[j] = randEntry()
		}
		return round
	}
	randBackend := func() string { return backendPool[rng.Intn(len(backendPool))] }

	steps := 150 + rng.Intn(150)
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // small round (it may be empty, or repeat a DN)
			rounds.fill(randBackend(), randRound(3)...)
		case 3: // large round
			rounds.fill(randBackend(), randRound(40)...)
		case 4: // a backend's round shrinks to nothing
			rounds.fill(randBackend())
		case 5: // the same backend twice in a row: only the second counts
			b := randBackend()
			rounds.fill(b, randRound(5)...)
			rounds.fill(b, randRound(5)...)
		case 6, 7: // registration refreshes
			if rng.Intn(2) == 0 {
				key := keyPool[rng.Intn(len(keyPool))]
				reg.Refresh(key, "payload-"+key, time.Duration(1+rng.Intn(90))*time.Second)
			} else {
				batch := make([]softstate.Refreshment, 1+rng.Intn(6))
				for j := range batch {
					key := keyPool[rng.Intn(len(keyPool))]
					batch[j] = softstate.Refreshment{Key: key, Payload: "payload-" + key,
						TTL: time.Duration(1+rng.Intn(90)) * time.Second}
				}
				reg.RefreshBatch(batch)
			}
		case 8: // registration removal or expiry pressure
			if rng.Intn(2) == 0 {
				reg.Remove(keyPool[rng.Intn(len(keyPool))])
			} else {
				clock.Advance(time.Duration(rng.Intn(30)) * time.Second)
				reg.Sweep()
			}
		case 9: // occasional mid-storm snapshot
			if rng.Intn(4) == 0 {
				if err := m.Snapshot(); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
			}
		}
	}
	if err := m.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	wantRounds := rounds.image()
	wantReg := reg.Live()
	m.Crash()

	freshRounds := newRoundTable()
	freshReg := softstate.NewRegistry(clock)
	m2, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways, Codec: stringCodec})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := m2.Recover(freshRounds, freshReg); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := m2.Attach(freshRounds, freshReg); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	defer m2.Close()

	sameImage(t, wantRounds, freshRounds.image())
	gotReg := freshReg.Live()
	if len(gotReg) != len(wantReg) {
		t.Fatalf("registrations: want %d, got %d", len(wantReg), len(gotReg))
	}
	for i, want := range wantReg { // Live() is key-sorted on both sides
		got := gotReg[i]
		if got.Key != want.Key {
			t.Fatalf("registration %d: want key %q, got %q", i, want.Key, got.Key)
		}
		if !got.ExpiresAt.Equal(want.ExpiresAt) {
			t.Fatalf("%q ExpiresAt: want %v, got %v", want.Key, want.ExpiresAt, got.ExpiresAt)
		}
		if got.Refreshes != want.Refreshes {
			t.Fatalf("%q Refreshes: want %d, got %d", want.Key, want.Refreshes, got.Refreshes)
		}
		if !got.LastRefresh.Equal(want.LastRefresh) {
			t.Fatalf("%q LastRefresh: want %v, got %v", want.Key, want.LastRefresh, got.LastRefresh)
		}
		if got.Payload != want.Payload {
			t.Fatalf("%q Payload: want %v, got %v", want.Key, want.Payload, got.Payload)
		}
		if !got.Recovered {
			t.Fatalf("%q should carry the Recovered mark after restore", want.Key)
		}
	}
}
