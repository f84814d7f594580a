package persist

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// PayloadCodec serializes registration payloads (the `any` carried by
// softstate items) for the WAL. Both funcs are optional: without Encode,
// registrations persist their deadlines but recover with a nil payload;
// without Decode, recovered payloads stay nil. Encode runs under the
// registry lock and must be CPU-only.
type PayloadCodec struct {
	Encode func(payload any) ([]byte, error)
	Decode func(b []byte) (any, error)
}

// Options configures a Manager.
type Options struct {
	// Dir is the data directory. Created if missing; owned exclusively by
	// one Manager at a time.
	Dir string
	// Clock drives timestamps, sync intervals, and the snapshot cadence.
	// Nil means the real clock.
	Clock softstate.Clock
	// Sync selects the durability/latency trade (see SyncMode). Default
	// SyncAlways.
	Sync SyncMode
	// SyncEvery is the SyncInterval fsync cadence. Default 100ms.
	SyncEvery time.Duration
	// SegmentBytes rotates the WAL once a segment reaches this size: a
	// segment ends at most one record past it.
	// Default 16 MiB.
	SegmentBytes int64
	// SnapshotEvery runs the background snapshotter at this cadence;
	// 0 disables it (snapshots then happen only via explicit Snapshot).
	SnapshotEvery time.Duration
	// RecoveryGrace extends recovered registrations' deadlines to at least
	// now+grace, giving providers one refresh interval to confirm before
	// soft state purges them. 0 trusts the persisted deadlines as-is.
	RecoveryGrace time.Duration
	// Codec persists registration payloads; see PayloadCodec.
	Codec PayloadCodec
	// Obs, when non-nil, receives the persist metrics.
	Obs *obs.Registry
	// ErrorLog, when non-nil, reports the first persistence failure.
	ErrorLog *log.Logger
}

// Rounds is a GRIS round table (gris.Server) as the log sees it, mirroring
// the registry's Restore + Observe: Recover hands Restore the last journaled
// round of each backend (entries keyed by backend name) and gets back the
// number of entries it installed; Attach hands Observe the journal that
// every later completed round must go to.
type Rounds interface {
	Restore(rounds map[string][]*ldap.Entry) int
	Observe(journal func(backend string, entries []*ldap.Entry))
}

// RecoverStats summarizes one recovery pass.
type RecoverStats struct {
	SnapshotPath     string // "" when booting from WAL alone
	SnapshotLSN      uint64 // watermark of the loaded snapshot
	Entries          int    // provider-round entries restored (snapshot + tail replay)
	Registrations    int    // registrations restored live
	SegmentsReplayed int
	RecordsReplayed  int   // tail records applied (LSN past the watermark)
	TornBytes        int64 // bytes discarded past the last valid record
	Duration         time.Duration
}

// Manager owns one data directory: the WAL, its snapshots, and the wiring
// into a round table and/or registry. Lifecycle: Open → (Recover) → Attach →
// traffic → Close. Recover is mandatory when the directory holds prior
// state; Attach on a dirty directory without it fails rather than
// silently forking history.
//
// Manager journals both owners (JournalRound, and softstate.Journal). Each
// is invoked under its owner's lock and only encodes and enqueues; nothing
// waits for a record to reach the disk.
type Manager struct {
	opts  Options
	clock softstate.Clock
	wal   *wal

	reg *softstate.Registry

	// rounds is the last journaled (or recovered) round of each backend,
	// what a snapshot writes. Its entries are the rounds' own immutable
	// snapshots, shared, never copied.
	roundsMu sync.Mutex
	rounds   map[string][]*ldap.Entry

	// Directory scan from Open, consumed by Recover/Attach.
	scanSegs  []segInfo
	scanSnaps []snapInfo
	recovered bool
	attached  bool
	closed    bool
	stats     RecoverStats
	maxLSN    uint64 // highest LSN seen across snapshot + segments

	snapMu   sync.Mutex // serializes Snapshot passes
	stateMu  sync.Mutex // guards lifecycle flags above
	errOnce  atomic.Bool
	stop     chan struct{}
	snapDone chan struct{}

	snapshotsTotal *obs.Counter
	snapLastBytes  *obs.Gauge
}

// Open prepares a Manager over dir, creating it if needed and scanning for
// prior state. No files are written yet.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = softstate.RealClock{}
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 16 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	// Leftover temp files are incomplete snapshots from a crashed writer.
	if names, err := os.ReadDir(opts.Dir); err == nil {
		for _, de := range names {
			if isTmpName(de.Name()) {
				os.Remove(filepath.Join(opts.Dir, de.Name()))
			}
		}
	}
	return &Manager{
		opts:      opts,
		clock:     opts.Clock,
		scanSegs:  segs,
		scanSnaps: snaps,
		rounds:    map[string][]*ldap.Entry{},
	}, nil
}

// HasState reports whether Open found prior segments or snapshots — i.e.
// whether Recover is required before Attach.
func (m *Manager) HasState() bool {
	return len(m.scanSegs) > 0 || len(m.scanSnaps) > 0
}

// Recover rebuilds round-table and registry state from the newest valid
// snapshot plus the WAL tail. Either target may be nil when this directory
// persists only the other. Must run before Attach; the targets must be
// otherwise idle (boot time).
func (m *Manager) Recover(rounds Rounds, reg *softstate.Registry) (RecoverStats, error) {
	start := m.clock.Now()
	var stats RecoverStats

	// Newest snapshot that validates wins; damaged ones fall back.
	roundState := map[string][]*ldap.Entry{}
	regState := map[string]regItem{}
	for i := len(m.scanSnaps) - 1; i >= 0; i-- {
		wm, snapRounds, items, err := loadSnapshot(m.scanSnaps[i].path)
		if err != nil {
			if m.opts.ErrorLog != nil {
				m.opts.ErrorLog.Printf("persist: skipping snapshot: %v", err)
			}
			continue
		}
		stats.SnapshotPath = m.scanSnaps[i].path
		stats.SnapshotLSN = wm
		roundState = snapRounds
		for _, it := range items {
			regState[it.key] = it
		}
		break
	}
	maxLSN := stats.SnapshotLSN

	// Replay the tail: only records past the snapshot watermark mutate
	// state, but every record advances the LSN horizon so new appends
	// never reuse a number. Replay stops entirely at the first torn frame —
	// nothing after damage can be trusted to be ordered.
	torn := false
	for si := range m.scanSegs {
		seg := &m.scanSegs[si]
		if torn {
			stats.TornBytes += segmentDataLen(seg.path)
			continue
		}
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return stats, fmt.Errorf("persist: %w", err)
		}
		if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
			return stats, fmt.Errorf("persist: %s: bad segment header", seg.path)
		}
		body := b[len(segMagic):]
		off, err := scanRecords(body, func(rec record) error {
			if rec.lsn > maxLSN {
				maxLSN = rec.lsn
			}
			seg.lastLSN = rec.lsn
			if rec.lsn <= stats.SnapshotLSN {
				return nil
			}
			stats.RecordsReplayed++
			return applyRecord(rec, roundState, regState)
		})
		if err != nil {
			return stats, err
		}
		stats.SegmentsReplayed++
		if off != len(body) {
			torn = true
			stats.TornBytes += int64(len(body) - off)
		}
	}

	if rounds != nil && len(roundState) > 0 {
		stats.Entries = rounds.Restore(roundState)
	}
	stats.Registrations = len(regState)
	if reg != nil && len(regState) > 0 {
		items := make([]softstate.Item, 0, len(regState))
		for _, ri := range regState {
			items = append(items, m.fromRegItem(ri))
		}
		stats.Registrations = reg.Restore(items, m.opts.RecoveryGrace)
	}
	stats.Duration = m.clock.Now().Sub(start)

	m.stateMu.Lock()
	m.recovered = true
	m.stats = stats
	m.maxLSN = maxLSN
	m.stateMu.Unlock()
	// A snapshot taken before the first new round must still hold the
	// recovered ones.
	m.roundsMu.Lock()
	m.rounds = roundState
	m.roundsMu.Unlock()
	return stats, nil
}

// applyRecord replays one tail record into the round / registry state maps.
func applyRecord(rec record, rounds map[string][]*ldap.Entry, regState map[string]regItem) error {
	switch rec.typ {
	case recRound:
		backend, entries, err := decodeRound(rec.payload)
		if err != nil {
			return fmt.Errorf("persist: replay at LSN %d: %w", rec.lsn, err)
		}
		rounds[backend] = entries
	case recRefresh:
		items, err := decodeRegItems(rec.payload)
		if err != nil {
			return fmt.Errorf("persist: replay at LSN %d: %w", rec.lsn, err)
		}
		for _, it := range items {
			regState[it.key] = it
		}
	case recRegRemove, recRegExpire:
		keys, err := decodeKeys(rec.payload)
		if err != nil {
			return fmt.Errorf("persist: replay at LSN %d: %w", rec.lsn, err)
		}
		for _, k := range keys {
			delete(regState, k)
		}
	default:
		return fmt.Errorf("persist: replay at LSN %d: unknown record type %d", rec.lsn, rec.typ)
	}
	return nil
}

func segmentDataLen(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	n := fi.Size() - int64(len(segMagic))
	if n < 0 {
		return 0
	}
	return n
}

// Attach opens a fresh WAL segment after the recovered history, installs
// the Manager as the round table's journal and a consumer of the registry's
// transition feed, and starts the background snapshotter. Either target may
// be nil. Attach runs after Recover, so neither feed replays the restored
// state into the log it came from.
func (m *Manager) Attach(rounds Rounds, reg *softstate.Registry) error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if m.attached {
		return errors.New("persist: already attached")
	}
	if m.HasState() && !m.recovered {
		return errors.New("persist: data directory has prior state; call Recover before Attach")
	}
	nextIndex := 1
	if n := len(m.scanSegs); n > 0 {
		nextIndex = m.scanSegs[n-1].index + 1
	}
	w, err := newWAL(m.opts.Dir, m.clock, m.opts.Sync, m.opts.SyncEvery,
		m.opts.SegmentBytes, m.scanSegs, nextIndex, m.maxLSN+1)
	if err != nil {
		return err
	}
	m.wal = w
	m.reg = reg
	if o := m.opts.Obs; o != nil {
		w.fsyncNs = o.Histogram("persist_fsync_ns")
		w.bytesTotal = o.Counter("persist_wal_bytes_total")
		w.recordsTotal = o.Counter("persist_wal_records_total")
		w.errorsTotal = o.Counter("persist_wal_errors_total")
		m.snapshotsTotal = o.Counter("persist_snapshots_total")
		m.snapLastBytes = o.Gauge("persist_snapshot_last_bytes")
		o.GaugeFunc("persist_wal_segments", func() float64 { return float64(w.segmentCount()) })
		o.Gauge("persist_replay_ns").Set(int64(m.stats.Duration))
		o.Gauge("persist_recovered_entries").Set(int64(m.stats.Entries))
		o.Gauge("persist_recovered_registrations").Set(int64(m.stats.Registrations))
	}
	w.start()
	if rounds != nil {
		rounds.Observe(m.JournalRound)
	}
	if reg != nil {
		reg.Observe(m)
	}
	if m.opts.SnapshotEvery > 0 {
		m.stop = make(chan struct{})
		m.snapDone = make(chan struct{})
		go m.snapshotLoop()
	}
	m.attached = true
	return nil
}

// Stats returns the recovery statistics (zero before Recover).
func (m *Manager) Stats() RecoverStats {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	return m.stats
}

// noteErr logs the first persistence failure; the WAL's sticky error keeps
// reporting it to callers without re-logging every mutation.
func (m *Manager) noteErr(err error) {
	if err == nil {
		return
	}
	if m.errOnce.CompareAndSwap(false, true) && m.opts.ErrorLog != nil {
		m.opts.ErrorLog.Printf("persist: %v", err)
	}
}

// JournalRound records one backend's completed provider round, which
// replaces its previous one. It runs while the round's owner still holds
// the backend (the GRIS fills one backend's rounds one at a time, so their
// records are in fill order): encode + enqueue, never wait — like a
// registration, a lost round is soft state the next fill recreates. The
// entries are kept for the next snapshot, never mutated.
func (m *Manager) JournalRound(backend string, entries []*ldap.Entry) {
	payload := encodeRound(nil, backend, entries)
	m.roundsMu.Lock()
	defer m.roundsMu.Unlock()
	m.rounds[backend] = entries
	_, _, err := m.wal.append(recRound, m.clock.Now().UnixNano(), payload)
	m.noteErr(err)
}

// JournalRegistry implements softstate.Journal. Runs under the registry
// lock: encode + enqueue, never wait — registration durability is
// asynchronous by design (a lost tail re-converges via the next refresh,
// the soft-state contract).
func (m *Manager) JournalRegistry(recs []softstate.JournalRecord) {
	ts := m.clock.Now().UnixNano()
	// Emit contiguous same-op runs as one record each, preserving order.
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].Op == recs[i].Op {
			j++
		}
		run := recs[i:j]
		var payload []byte
		typ := byte(0)
		switch recs[i].Op {
		case softstate.JournalRefresh:
			items := make([]regItem, len(run))
			for k, rec := range run {
				items[k] = m.toRegItem(rec.Item)
			}
			typ, payload = recRefresh, encodeRegItems(nil, items)
		case softstate.JournalRemove, softstate.JournalExpire:
			keys := make([]string, len(run))
			for k, rec := range run {
				keys[k] = rec.Item.Key
			}
			typ = recRegRemove
			if recs[i].Op == softstate.JournalExpire {
				typ = recRegExpire
			}
			payload = encodeKeys(nil, keys)
		}
		if typ != 0 {
			_, _, err := m.wal.append(typ, ts, payload)
			m.noteErr(err)
		}
		i = j
	}
}

func (m *Manager) toRegItem(it softstate.Item) regItem {
	ri := regItem{
		key:         it.Key,
		expiresAt:   it.ExpiresAt.UnixNano(),
		joinedAt:    it.JoinedAt.UnixNano(),
		lastRefresh: it.LastRefresh.UnixNano(),
		refreshes:   uint64(it.Refreshes),
	}
	if m.opts.Codec.Encode != nil && it.Payload != nil {
		if b, err := m.opts.Codec.Encode(it.Payload); err == nil {
			ri.payload = b
		}
	}
	return ri
}

func (m *Manager) fromRegItem(ri regItem) softstate.Item {
	it := softstate.Item{
		Key:         ri.key,
		ExpiresAt:   time.Unix(0, ri.expiresAt),
		JoinedAt:    time.Unix(0, ri.joinedAt),
		LastRefresh: time.Unix(0, ri.lastRefresh),
		Refreshes:   int(ri.refreshes),
	}
	if m.opts.Codec.Decode != nil && ri.payload != nil {
		if p, err := m.opts.Codec.Decode(ri.payload); err == nil {
			it.Payload = p
		}
	}
	return it
}

// Barrier appends a no-op record (an empty expiry batch) and waits for its
// batch to flush: every mutation enqueued before the call has reached the
// file when Barrier returns (and the disk, under SyncAlways). Used by the
// crash tests and the recover benchmark to draw a durability line.
func (m *Manager) Barrier() error {
	_, done, err := m.wal.append(recRegExpire, m.clock.Now().UnixNano(), encodeKeys(nil, nil))
	if err != nil {
		return err
	}
	<-done
	return m.wal.stickyErr()
}

// Snapshot captures the last round of every backend and the attached
// registry to a new snapshot file and truncates the WAL segments it
// supersedes. Safe to call concurrently
// with traffic: the watermark is read BEFORE state capture, so any
// mutation racing the capture either made it into the captured state
// (and replays idempotently from the tail) or has an LSN past the
// watermark and survives truncation.
func (m *Manager) Snapshot() error {
	m.stateMu.Lock()
	attached := m.attached
	m.stateMu.Unlock()
	if !attached {
		return errors.New("persist: Snapshot before Attach")
	}
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	watermark := m.wal.lastAssigned()
	m.roundsMu.Lock()
	rounds := maps.Clone(m.rounds)
	m.roundsMu.Unlock()
	var items []regItem
	if m.reg != nil {
		live := m.reg.Live()
		items = make([]regItem, len(live))
		for i, it := range live {
			items[i] = m.toRegItem(it)
		}
	}
	_, size, err := writeSnapshot(m.opts.Dir, watermark, rounds, items)
	if err != nil {
		m.noteErr(err)
		return err
	}
	m.snapshotsTotal.Inc()
	m.snapLastBytes.Set(size)
	m.wal.truncateThrough(watermark)
	if snaps, err := listSnapshots(m.opts.Dir); err == nil {
		for _, sn := range snaps {
			if sn.watermark < watermark {
				os.Remove(sn.path)
			}
		}
	}
	return nil
}

func (m *Manager) snapshotLoop() {
	defer close(m.snapDone)
	for {
		select {
		case <-m.stop:
			return
		case <-m.clock.After(m.opts.SnapshotEvery):
			if err := m.Snapshot(); err != nil {
				m.noteErr(err)
			}
		}
	}
}

func (m *Manager) stopLoops() {
	if m.stop != nil {
		close(m.stop)
		<-m.snapDone
		m.stop = nil
	}
}

// Close flushes and seals the WAL. It does not snapshot: boot replays the
// tail either way, and crash and clean shutdown should exercise one path.
func (m *Manager) Close() error {
	m.stateMu.Lock()
	if m.closed || !m.attached {
		m.closed = true
		m.stateMu.Unlock()
		return nil
	}
	m.closed = true
	m.stateMu.Unlock()
	m.stopLoops()
	err := m.wal.close()
	m.noteErr(err)
	return err
}

// Crash abandons the WAL without flushing — the test hook standing in for
// kill -9. What a Barrier covered is on disk; everything pending is lost,
// exactly as a real crash would lose it.
func (m *Manager) Crash() {
	m.stateMu.Lock()
	if m.closed || !m.attached {
		m.closed = true
		m.stateMu.Unlock()
		return
	}
	m.closed = true
	m.stateMu.Unlock()
	m.stopLoops()
	m.wal.crash()
}
