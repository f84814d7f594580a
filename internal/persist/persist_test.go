package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

func mustDN(t *testing.T, s string) ldap.DN {
	t.Helper()
	dn, err := ldap.ParseDN(s)
	if err != nil {
		t.Fatalf("ParseDN(%q): %v", s, err)
	}
	return dn
}

func testEntry(t *testing.T, dn string, attrs ...string) *ldap.Entry {
	t.Helper()
	e := ldap.NewEntry(mustDN(t, dn))
	e.Add("objectclass", "computer")
	for i := 0; i+1 < len(attrs); i += 2 {
		e.Add(attrs[i], attrs[i+1])
	}
	return e
}

// roundTable is a GRIS round table in miniature (the Rounds contract): the
// last round of each backend, installed whole by fill, which then journals
// it. Like a GRIS, it fills different backends concurrently, and each
// backend's rounds one at a time.
type roundTable struct {
	mu      sync.Mutex
	rounds  map[string][]*ldap.Entry
	journal func(backend string, entries []*ldap.Entry)
}

func newRoundTable() *roundTable { return &roundTable{rounds: map[string][]*ldap.Entry{}} }

func (r *roundTable) Restore(rounds map[string][]*ldap.Entry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for backend, entries := range rounds {
		r.rounds[backend] = entries
		n += len(entries)
	}
	return n
}

func (r *roundTable) Observe(journal func(backend string, entries []*ldap.Entry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = journal
}

// fill completes one provider round for backend.
func (r *roundTable) fill(backend string, entries ...*ldap.Entry) {
	r.mu.Lock()
	r.rounds[backend] = entries
	journal := r.journal
	r.mu.Unlock()
	if journal != nil {
		journal(backend, entries)
	}
}

// image flattens the table for comparison: "backend#i DN" → rendered
// attributes, so order within a round counts too.
func (r *roundTable) image() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]string{}
	for backend, entries := range r.rounds {
		for i, e := range entries {
			img := ""
			for _, a := range e.Attributes() {
				img += a.Name + "="
				for _, v := range a.Values {
					img += v + ","
				}
				img += ";"
			}
			out[fmt.Sprintf("%s#%d %s", backend, i, e.DN.Normalize())] = img
		}
	}
	return out
}

func sameImage(t *testing.T, want, got map[string]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("entry count: want %d, got %d", len(want), len(got))
	}
	for dn, img := range want {
		if got[dn] != img {
			t.Fatalf("entry %q: want %q, got %q", dn, img, got[dn])
		}
	}
}

func openAttached(t *testing.T, dir string, clock softstate.Clock, mode SyncMode,
	rounds Rounds, reg *softstate.Registry) *Manager {
	t.Helper()
	m, err := Open(Options{Dir: dir, Clock: clock, Sync: mode})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if m.HasState() {
		if _, err := m.Recover(rounds, reg); err != nil {
			t.Fatalf("Recover: %v", err)
		}
	}
	if err := m.Attach(rounds, reg); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return m
}

// hostEntry is the one entry of backend hN's round.
func hostEntry(t *testing.T, i int, attrs ...string) *ldap.Entry {
	return testEntry(t, fmt.Sprintf("hn=h%d, ou=res, o=grid", i), attrs...)
}

func TestRoundsRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()

	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncAlways, rounds, nil)
	for i := 0; i < 20; i++ {
		rounds.fill(fmt.Sprintf("b%d", i%4), hostEntry(t, i, "load5", fmt.Sprintf("%d", i)),
			hostEntry(t, 100+i))
	}
	// A later round replaces the earlier one whole: b3's second entry goes,
	// b1's first changes.
	rounds.fill("b3", hostEntry(t, 19, "load5", "19"))
	rounds.fill("b1", hostEntry(t, 17, "load5", "99"), hostEntry(t, 117))
	want := rounds.image()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fresh := newRoundTable()
	m2, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !m2.HasState() {
		t.Fatal("HasState: want true after writes")
	}
	stats, err := m2.Recover(fresh, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.RecordsReplayed == 0 {
		t.Fatal("Recover replayed no records")
	}
	sameImage(t, want, fresh.image())
	if err := m2.Attach(fresh, nil); err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	// The recovered instance keeps logging past the old history.
	fresh.fill("b0", hostEntry(t, 1000))
	if err := m2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSnapshotBoundsReplayAndTruncates(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways, SegmentBytes: 2048})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.Attach(rounds, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	// Rounds are never waited on, and one group-commit batch rotates at
	// most once: a Barrier after each round gives it a batch of its own.
	for i := 0; i < 200; i++ {
		rounds.fill(fmt.Sprintf("b%d", i), hostEntry(t, i))
		if err := m.Barrier(); err != nil {
			t.Fatalf("Barrier: %v", err)
		}
	}
	segsBefore, _ := listSegments(dir)
	if len(segsBefore) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segsBefore))
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("snapshot did not truncate segments: %d -> %d", len(segsBefore), len(segsAfter))
	}
	// Tail writes after the snapshot land in the surviving segments.
	rounds.fill("tail", testEntry(t, "hn=tail, ou=res, o=grid"))
	want := rounds.image()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fresh := newRoundTable()
	m2, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := m2.Recover(fresh, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.SnapshotPath == "" {
		t.Fatal("Recover ignored the snapshot")
	}
	// 200 from the snapshot plus the tail round replayed past the watermark.
	if stats.Entries != 201 {
		t.Fatalf("restored entries: want 201, got %d", stats.Entries)
	}
	sameImage(t, want, fresh.image())
	if err := m2.Attach(fresh, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	m2.Close()
}

// TestBurstRotatesAtRecordBoundaries: rounds journaled in a burst, with no
// wait between them, reach the flusher as a few large group-commit batches.
// Each batch is cut at record boundaries, so every segment ends at most one
// record past SegmentBytes; replay equals what was journaled, and a
// snapshot truncates every sealed segment.
func TestBurstRotatesAtRecordBoundaries(t *testing.T) {
	const segBytes = 2048
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways, SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.Attach(rounds, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 200; i++ {
		rounds.fill(fmt.Sprintf("b%d", i), hostEntry(t, i))
	}
	if err := m.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("a burst of 200 rounds left %d segments, want several", len(segs))
	}
	var lastLSN uint64
	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		body := b[len(segMagic):]
		lastRec := 0
		end, err := scanRecords(body, func(rec record) error {
			if rec.lsn != lastLSN+1 {
				t.Fatalf("%s: record LSN %d follows %d", seg.path, rec.lsn, lastLSN)
			}
			lastLSN = rec.lsn
			lastRec = frameHeader + bodyHeader + len(rec.payload)
			return nil
		})
		if err != nil || end != len(body) {
			t.Fatalf("%s: %d of %d bytes scan cleanly (%v)", seg.path, end, len(body), err)
		}
		if before := len(b) - lastRec; before >= segBytes {
			t.Errorf("%s: %d bytes, %d before its last record: more than one record past SegmentBytes %d",
				seg.path, len(b), before, segBytes)
		}
	}
	if lastLSN != 201 { // the rounds and the Barrier's record
		t.Fatalf("segments hold LSNs 1..%d, want 1..201", lastLSN)
	}
	want := rounds.image()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fresh := newRoundTable()
	m2 := openAttached(t, dir, clock, SyncAlways, fresh, nil)
	sameImage(t, want, fresh.image())
	if err := m2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if after, _ := listSegments(dir); len(after) != 1 {
		t.Errorf("the snapshot left %d segments, want only the open one", len(after))
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRoundsJournalConcurrently: backends journal their rounds at once
// while snapshots are taken; the last round of each is what recovers.
func TestRoundsJournalConcurrently(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncNone, rounds, nil)
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rounds.fill(fmt.Sprintf("b%d", b), hostEntry(t, b, "round", fmt.Sprint(i)))
			}
		}(b)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := m.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
			}
		}
	}()
	wg.Wait()
	want := rounds.image()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fresh := newRoundTable()
	openAttached(t, dir, clock, SyncNone, fresh, nil).Close()
	sameImage(t, want, fresh.image())
}

// TestSnapshotAfterRecoveryKeepsRounds: a snapshot taken after a restart,
// before any backend has filled a new round, still holds the recovered
// rounds — it truncates the segments they came from.
func TestSnapshotAfterRecoveryKeepsRounds(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncAlways, rounds, nil)
	rounds.fill("b0", hostEntry(t, 0))
	rounds.fill("b1", hostEntry(t, 1), hostEntry(t, 2))
	want := rounds.image()
	m.Close()

	for boot := 1; boot <= 2; boot++ {
		fresh := newRoundTable()
		m := openAttached(t, dir, clock, SyncAlways, fresh, nil)
		sameImage(t, want, fresh.image())
		if err := m.Snapshot(); err != nil {
			t.Fatalf("boot %d: Snapshot: %v", boot, err)
		}
		m.Close()
	}
}

func TestRegistryRecoveryGraceWindow(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	reg := softstate.NewRegistry(clock)
	m := openAttached(t, dir, clock, SyncAlways, nil, reg)
	if !reg.Refresh("ldap://p1", nil, time.Minute) {
		t.Fatal("Refresh p1")
	}
	if !reg.Refresh("ldap://p2", nil, 10*time.Second) {
		t.Fatal("Refresh p2")
	}
	// Registry journaling is asynchronous; draw the durability line before
	// crashing so the test is deterministic.
	if err := m.Barrier(); err != nil {
		t.Fatalf("Barrier: %v", err)
	}
	m.Crash()

	// Restart far enough in the future that both TTLs have lapsed on the
	// wall: the grace window must still serve them briefly.
	clock.Advance(2 * time.Minute)
	reg2 := softstate.NewRegistry(clock)
	m2, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways,
		RecoveryGrace: 30 * time.Second})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := m2.Recover(nil, reg2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := m2.Attach(nil, reg2); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if stats.Registrations != 2 {
		t.Fatalf("recovered registrations: want 2, got %d", stats.Registrations)
	}
	if got := reg2.RecoveredLive(); got != 2 {
		t.Fatalf("RecoveredLive: want 2, got %d", got)
	}
	it, ok := reg2.Get("ldap://p1")
	if !ok || !it.Recovered {
		t.Fatalf("p1 not recovered-live: ok=%v item=%+v", ok, it)
	}
	// A confirming refresh clears the recovered mark...
	if reg2.Refresh("ldap://p1", nil, time.Minute) {
		t.Fatal("p1 should refresh as existing, not newly joined")
	}
	if got := reg2.RecoveredLive(); got != 1 {
		t.Fatalf("RecoveredLive after confirm: want 1, got %d", got)
	}
	// ...and the unconfirmed one lapses when the grace window closes.
	clock.Advance(31 * time.Second)
	reg2.Sweep()
	if _, ok := reg2.Get("ldap://p2"); ok {
		t.Fatal("p2 should have expired at the end of its grace window")
	}
	if _, ok := reg2.Get("ldap://p1"); !ok {
		t.Fatal("p1 should still be live after its confirming refresh")
	}
	m2.Close()
}

func TestTornTailTruncatesCleanly(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncAlways, rounds, nil)
	for i := 0; i < 10; i++ {
		rounds.fill(fmt.Sprintf("b%d", i), hostEntry(t, i))
	}
	want := rounds.image()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the live segment: chop bytes off the end and append garbage —
	// what a crash mid-write leaves behind.
	segs, _ := listSegments(dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1].path
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b[:len(b)-7], 0xde, 0xad, 0xbe)
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}
	delete(want, "b9#0 "+mustDN(t, "hn=h9, ou=res, o=grid").Normalize()) // the torn record

	fresh := newRoundTable()
	m2, err := Open(Options{Dir: dir, Clock: clock, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := m2.Recover(fresh, nil)
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	if stats.TornBytes == 0 {
		t.Fatal("TornBytes: want > 0")
	}
	sameImage(t, want, fresh.image())
	if err := m2.Attach(fresh, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	m2.Close()
}

func TestAttachRefusesDirtyDirWithoutRecover(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncAlways, rounds, nil)
	rounds.fill("b0", hostEntry(t, 0))
	m.Close()

	m2, err := Open(Options{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m2.Attach(newRoundTable(), nil); err == nil {
		t.Fatal("Attach on dirty dir without Recover: want error")
	}
}

func TestSnapshotSkippedWhenDamaged(t *testing.T) {
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	rounds := newRoundTable()
	m := openAttached(t, dir, clock, SyncAlways, rounds, nil)
	for i := 0; i < 5; i++ {
		rounds.fill(fmt.Sprintf("b%d", i), hostEntry(t, i))
	}
	if err := m.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want := rounds.image()
	m.Close()

	// Truncate the snapshot: the end marker disappears, so recovery must
	// reject it and rebuild from the WAL (which the snapshot truncated —
	// but only sealed segments are truncated, and these writes are in the
	// live segment, still present).
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Fatalf("snapshots: want 1, got %d", len(snaps))
	}
	b, err := os.ReadFile(snaps[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps[0].path, b[:len(b)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := newRoundTable()
	m2, err := Open(Options{Dir: dir, Clock: clock})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := m2.Recover(fresh, nil)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.SnapshotPath != "" {
		t.Fatal("damaged snapshot should have been skipped")
	}
	sameImage(t, want, fresh.image())
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		err  bool
	}{
		{"always", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"none", SyncNone, false},
		{"sometimes", 0, true},
	} {
		got, err := ParseSyncMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.err && got.String() != tc.in {
			t.Errorf("SyncMode.String() = %q, want %q", got.String(), tc.in)
		}
	}
}

func TestSyncIntervalFlushesOnTimer(t *testing.T) {
	dir := t.TempDir()
	rounds := newRoundTable()
	// Real clock: the interval timer must actually fire.
	m, err := Open(Options{Dir: dir, Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := m.Attach(rounds, nil); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	rounds.fill("b0", hostEntry(t, 0))
	deadline := time.Now().Add(2 * time.Second)
	for {
		segs, _ := listSegments(dir)
		if len(segs) > 0 {
			if fi, err := os.Stat(segs[len(segs)-1].path); err == nil && fi.Size() > int64(len(segMagic)) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interval flush never wrote the record")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
}

func TestTmpFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp-snap-123")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived Open: %v", err)
	}
}
