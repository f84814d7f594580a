package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// SyncMode selects when the WAL fsyncs what its group-commit batches wrote.
type SyncMode int

const (
	// SyncAlways fsyncs every group-commit batch before the next one:
	// everything a returned Barrier covered survives power loss. Group
	// commit keeps this affordable — one fsync covers the whole batch
	// queued behind it. Nothing but Barrier waits for it.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery. A crash can
	// lose the unsynced tail, never corrupt it: the checksummed framing
	// truncates cleanly at the tear.
	SyncInterval
	// SyncNone leaves flushing to the OS page cache (still safe against
	// process death, not against power loss).
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag vocabulary onto SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("persist: unknown sync mode %q (want always, interval, or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("syncmode(%d)", int(m))
}

// segMagic heads every WAL segment; snapMagic heads every snapshot. The
// trailing byte is the format version.
const (
	segMagic  = "MDS2WAL\x01"
	snapMagic = "MDS2SNP\x01"
)

func segmentName(index int) string { return fmt.Sprintf("wal-%08d.log", index) }

// segInfo describes one sealed (no longer appended) segment on disk.
type segInfo struct {
	index   int
	path    string
	lastLSN uint64 // highest LSN the segment holds; 0 when it holds none
}

// listSegments enumerates wal-*.log files in dir in index order.
func listSegments(dir string) ([]segInfo, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []segInfo
	for _, de := range names {
		name := de.Name()
		var idx int
		if _, err := fmt.Sscanf(name, "wal-%08d.log", &idx); err != nil ||
			name != segmentName(idx) {
			continue
		}
		out = append(out, segInfo{index: idx, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out, nil
}

// wal is the group-committed, segment-rotated log. append frames records
// into a pending buffer under mu and never blocks; the single flusher
// goroutine swaps the buffer out, writes it in one syscall, fsyncs per the
// sync mode, and closes the batch's done channel — so one fsync covers
// every record that queued behind it.
//
// Failures are fail-stop: the first write or fsync error sticks, every
// subsequent append and Barrier reports it, and nothing further reaches
// disk.
type wal struct {
	dir       string
	clock     softstate.Clock
	mode      SyncMode
	syncEvery time.Duration
	segBytes  int64

	// Metrics; all nil-safe no-ops without an obs registry.
	fsyncNs      *obs.Histogram
	bytesTotal   *obs.Counter
	recordsTotal *obs.Counter
	errorsTotal  *obs.Counter

	mu          sync.Mutex
	nextLSN     uint64
	pending     []byte
	pendingDone chan struct{}
	sealed      []segInfo
	err         error

	// Fields below mu are touched only by the flusher goroutine (and by
	// close/crash after the flusher has exited).
	seg      *os.File
	segIndex int
	segSize  int64
	segLast  uint64
	needSync bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// createSegment creates and heads the segment file for index.
func createSegment(dir string, index int) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(index)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// newWAL opens a fresh append segment after the sealed history and starts
// the flusher. sealed lists the pre-existing segments (recovery input);
// nextLSN continues the numbering past everything recovered.
func newWAL(dir string, clock softstate.Clock, mode SyncMode, syncEvery time.Duration,
	segBytes int64, sealed []segInfo, nextIndex int, nextLSN uint64) (*wal, error) {

	f, err := createSegment(dir, nextIndex)
	if err != nil {
		return nil, fmt.Errorf("persist: creating segment: %w", err)
	}
	w := &wal{
		dir:       dir,
		clock:     clock,
		mode:      mode,
		syncEvery: syncEvery,
		segBytes:  segBytes,
		nextLSN:   nextLSN,
		sealed:    sealed,
		seg:       f,
		segIndex:  nextIndex,
		segSize:   int64(len(segMagic)),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	return w, nil
}

// start launches the flusher. Separate from newWAL so the caller can
// install metrics first without racing the goroutine.
func (w *wal) start() { go w.flushLoop() }

// append frames one record, assigns its LSN, and queues it for the
// flusher. Callers hold their own data-structure lock across append — that
// is what makes LSN order equal apply order — so nothing here may block:
// the kick is a non-blocking send on a buffered channel after w.mu is
// released. The returned channel closes when the batch reaches disk (per
// the sync mode); err is the sticky failure, if the log has already died.
func (w *wal) append(typ byte, ts int64, payload []byte) (lsn uint64, done <-chan struct{}, err error) {
	w.mu.Lock()
	if w.err != nil {
		err = w.err
		w.mu.Unlock()
		return 0, nil, err
	}
	lsn = w.nextLSN
	w.nextLSN++
	w.pending = appendRecord(w.pending, typ, lsn, ts, payload)
	if w.pendingDone == nil {
		w.pendingDone = make(chan struct{})
	}
	d := w.pendingDone
	w.mu.Unlock()
	w.recordsTotal.Inc()
	select {
	case w.kick <- struct{}{}:
	default:
		// A kick is already queued; the flusher will pick this batch up.
	}
	return lsn, d, nil
}

// lastAssigned returns the highest LSN handed out so far (0: none). The
// snapshotter reads this BEFORE capturing state: every mutation at or
// below the watermark is visible in the captured state (its data-structure
// update happens before its append, under the same lock), so truncating
// segments at the watermark after a durable snapshot never loses history.
func (w *wal) lastAssigned() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// stickyErr returns the first write/fsync failure, if any.
func (w *wal) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// fail records err as the sticky failure unless one is already recorded,
// and returns the sticky failure.
func (w *wal) fail(err error) error {
	w.errorsTotal.Inc()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// flushLoop is the single writer: it drains everything queued since its
// last pass into one write and at most one fsync (group commit), rotating
// segments as they fill. It exits on stop after a final flush.
func (w *wal) flushLoop() {
	defer close(w.done)
	var syncTimer <-chan time.Time
	for {
		select {
		case <-w.stop:
			w.flush(w.mode != SyncNone)
			return
		case <-syncTimer:
			syncTimer = nil
			w.flush(true)
			continue
		case <-w.kick:
		}
		w.flush(w.mode == SyncAlways)
		if w.mode == SyncInterval && w.needSync && syncTimer == nil {
			syncTimer = w.clock.After(w.syncEvery)
		}
	}
}

// flush writes the pending batch, optionally fsyncs, wakes the batch's
// waiters, and rotates a full segment. A batch that fills the open segment
// is cut at a record boundary and goes on in the next one, so a segment
// ends at most one record past segBytes, however large the batch: a
// snapshot truncates whole sealed segments only. Flusher goroutine only.
func (w *wal) flush(sync bool) {
	w.mu.Lock()
	buf := w.pending
	done := w.pendingDone
	w.pending = nil
	w.pendingDone = nil
	failed := w.err
	w.mu.Unlock()

	for failed == nil && len(buf) > 0 {
		n, last := w.segmentCut(buf)
		if _, err := w.seg.Write(buf[:n]); err != nil {
			w.fail(fmt.Errorf("persist: wal write: %w", err))
			failed = err
			break
		}
		w.segSize += int64(n)
		w.segLast = last
		w.needSync = true
		w.bytesTotal.Add(int64(n))
		if buf = buf[n:]; len(buf) > 0 {
			failed = w.rotate()
		}
	}
	if failed == nil && sync && w.needSync {
		start := w.clock.Now()
		if err := w.seg.Sync(); err != nil {
			w.fail(fmt.Errorf("persist: wal fsync: %w", err))
			failed = err
		} else {
			w.fsyncNs.Observe(w.clock.Now().Sub(start))
			w.needSync = false
		}
	}
	if done != nil {
		// Wakes even on failure: waiters re-check stickyErr after the wait.
		close(done)
	}
	if failed == nil && w.segSize >= w.segBytes {
		w.rotate()
	}
}

// segmentCut returns how much of buf, whole framed records, goes into the
// open segment — records up to and including the first that takes it to
// segBytes, at least one — and the LSN of the last of them.
func (w *wal) segmentCut(buf []byte) (n int, last uint64) {
	for size := w.segSize; n < len(buf) && (n == 0 || size < w.segBytes); {
		rec := frameHeader + int(binary.LittleEndian.Uint32(buf[n:]))
		last = binary.LittleEndian.Uint64(buf[n+frameHeader+1:])
		n += rec
		size += int64(rec)
	}
	return n, last
}

// rotate seals the open segment (fsyncing it so the sealed list only ever
// names durable files) and opens the next one. The error is the sticky one
// it recorded, if it failed.
func (w *wal) rotate() error {
	if err := w.seg.Sync(); err != nil {
		return w.fail(fmt.Errorf("persist: wal fsync at rotation: %w", err))
	}
	w.needSync = false
	if err := w.seg.Close(); err != nil {
		return w.fail(fmt.Errorf("persist: wal close at rotation: %w", err))
	}
	info := segInfo{index: w.segIndex, path: filepath.Join(w.dir, segmentName(w.segIndex)),
		lastLSN: w.segLast}
	f, err := createSegment(w.dir, w.segIndex+1)
	if err != nil {
		return w.fail(fmt.Errorf("persist: rotating segment: %w", err))
	}
	w.mu.Lock()
	w.sealed = append(w.sealed, info)
	w.mu.Unlock()
	w.seg = f
	w.segIndex++
	w.segSize = int64(len(segMagic))
	w.segLast = 0
	return nil
}

// segmentCount returns sealed segments plus the open one (a gauge).
func (w *wal) segmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// truncateThrough deletes sealed segments wholly covered by a durable
// snapshot at watermark. The open segment is never touched. Returns the
// number of segments removed.
func (w *wal) truncateThrough(watermark uint64) int {
	w.mu.Lock()
	keep := w.sealed[:0]
	var dead []segInfo
	for _, s := range w.sealed {
		if s.lastLSN <= watermark {
			dead = append(dead, s)
		} else {
			keep = append(keep, s)
		}
	}
	w.sealed = keep
	w.mu.Unlock()
	removed := 0
	for _, s := range dead {
		if err := os.Remove(s.path); err == nil {
			removed++
		}
	}
	return removed
}

// close stops the flusher (flushing what remains), seals the open segment,
// and reports the sticky error if the log failed at any point.
func (w *wal) close() error {
	close(w.stop)
	<-w.done
	var err error
	if w.seg != nil {
		if w.mode != SyncNone {
			err = w.seg.Sync()
		}
		if cerr := w.seg.Close(); err == nil {
			err = cerr
		}
		w.seg = nil
	}
	if serr := w.stickyErr(); err == nil {
		err = serr
	}
	return err
}

// crash abandons the log without flushing the pending buffer — the test
// hook simulating an abrupt kill. Flushed batches are already in the
// file; everything still pending is deliberately dropped.
func (w *wal) crash() {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("persist: crashed")
	}
	w.pending = nil
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	if w.seg != nil {
		w.seg.Close() // no sync: whatever the OS kept is what recovery sees
		w.seg = nil
	}
}

// isTmpName reports scratch files (in-progress snapshots) that recovery
// and truncation must ignore.
func isTmpName(name string) bool { return strings.HasPrefix(name, "tmp-") }
