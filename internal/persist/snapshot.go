package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mds2/internal/ldap"
)

// Snapshot files are named snap-%016x.snap, the hex digits being the WAL
// watermark the snapshot captured: every record with LSN ≤ watermark is
// reflected in the snapshot body, so recovery replays only the tail past
// it. The body reuses the WAL record framing (one recRound per backend,
// recRefresh batches, LSN field zero) and ends with a recSnapEnd marker
// whose round/item counts prove the file was written to completion — a
// truncated snapshot fails validation and recovery falls back to the
// previous one.
const (
	snapHeader    = len(snapMagic) + 8 // magic + u64le watermark
	snapBatchSize = 256                // registry items per record
)

func snapshotName(watermark uint64) string {
	return fmt.Sprintf("snap-%016x.snap", watermark)
}

// snapInfo describes one snapshot file found on disk.
type snapInfo struct {
	watermark uint64
	path      string
}

// listSnapshots enumerates snap-*.snap files in dir, oldest watermark
// first.
func listSnapshots(dir string) ([]snapInfo, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []snapInfo
	for _, de := range names {
		name := de.Name()
		var wm uint64
		if _, err := fmt.Sscanf(name, "snap-%016x.snap", &wm); err != nil ||
			name != snapshotName(wm) {
			continue
		}
		out = append(out, snapInfo{watermark: wm, path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].watermark < out[j].watermark })
	return out, nil
}

// writeSnapshot serializes the captured state to a temp file, fsyncs it,
// and renames it into place (then fsyncs the directory) so a crash leaves
// either the complete new snapshot or none of it. Returns the final path
// and the serialized size.
func writeSnapshot(dir string, watermark uint64, rounds map[string][]*ldap.Entry, items []regItem) (string, int64, error) {
	buf := make([]byte, 0, snapHeader+len(items)*128)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	var payload []byte
	for backend, entries := range rounds {
		payload = encodeRound(payload[:0], backend, entries)
		buf = appendRecord(buf, recRound, 0, 0, payload)
	}
	for i := 0; i < len(items); i += snapBatchSize {
		end := i + snapBatchSize
		if end > len(items) {
			end = len(items)
		}
		payload = encodeRegItems(payload[:0], items[i:end])
		buf = appendRecord(buf, recRefresh, 0, 0, payload)
	}
	payload = encodeSnapEnd(payload[:0], len(rounds), len(items))
	buf = appendRecord(buf, recSnapEnd, 0, 0, payload)

	tmp, err := os.CreateTemp(dir, "tmp-snap-*")
	if err != nil {
		return "", 0, fmt.Errorf("persist: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		cleanup()
		return "", 0, fmt.Errorf("persist: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return "", 0, fmt.Errorf("persist: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", 0, fmt.Errorf("persist: snapshot close: %w", err)
	}
	final := filepath.Join(dir, snapshotName(watermark))
	if err := os.Rename(tmpName, final); err != nil {
		cleanup()
		return "", 0, fmt.Errorf("persist: snapshot rename: %w", err)
	}
	syncDir(dir)
	return final, int64(len(buf)), nil
}

// syncDir fsyncs a directory so a just-renamed file's name is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// loadSnapshot reads and validates one snapshot file: header magic, clean
// record scan to exactly the end, a final recSnapEnd whose counts match
// what was decoded. Any deviation returns an error and the caller tries an
// older snapshot.
func loadSnapshot(path string) (watermark uint64, rounds map[string][]*ldap.Entry, items []regItem, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(b) < snapHeader || string(b[:len(snapMagic)]) != snapMagic {
		return 0, nil, nil, fmt.Errorf("persist: %s: bad snapshot header", path)
	}
	watermark = binary.LittleEndian.Uint64(b[len(snapMagic):])
	body := b[snapHeader:]
	rounds = map[string][]*ldap.Entry{}
	nrounds := 0 // round records read, duplicates included
	sealed := false
	off, err := scanRecords(body, func(rec record) error {
		if sealed {
			return fmt.Errorf("persist: %s: record after end marker", path)
		}
		switch rec.typ {
		case recRound:
			backend, entries, err := decodeRound(rec.payload)
			if err != nil {
				return err
			}
			rounds[backend] = entries
			nrounds++
		case recRefresh:
			is, err := decodeRegItems(rec.payload)
			if err != nil {
				return err
			}
			items = append(items, is...)
		case recSnapEnd:
			nr, ni, err := decodeSnapEnd(rec.payload)
			if err != nil {
				return err
			}
			if nr != uint64(nrounds) || ni != uint64(len(items)) {
				return fmt.Errorf("persist: %s: snapshot counts mismatch", path)
			}
			sealed = true
		default:
			return fmt.Errorf("persist: %s: unexpected record type %d in snapshot", path, rec.typ)
		}
		return nil
	})
	if err != nil {
		return 0, nil, nil, err
	}
	if !sealed || off != len(body) {
		return 0, nil, nil, fmt.Errorf("persist: %s: truncated snapshot", path)
	}
	return watermark, rounds, items, nil
}
