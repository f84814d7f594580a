// Package persist implements write-ahead-log + snapshot durability for the
// two owners of soft state: a GRIS's round table (the last completed round
// of each cached provider, gris.Server) and a GIIS's registration registry
// (softstate.Registry).
//
// The paper's design is all soft state: a restarted GRIS or GIIS forgets
// every cached round and registration and must wait out a full re-upload
// storm or a cold stampede of provider invocations. This package bounds
// recovery by snapshot size plus WAL tail instead:
//
//   - Each owner journals its transitions (a completed provider round on
//     the GRIS; register, refresh-batch, expire, remove on the registry)
//     as checksummed, length-prefixed records in a group-committed,
//     segment-rotated WAL. Journaling encodes and enqueues and never
//     blocks; a single flusher goroutine writes and fsyncs whole batches.
//     Nothing waits on a record: Barrier draws the durability line.
//   - A background snapshotter writes the last journaled round of every
//     backend plus the registry's live items, then truncates the WAL
//     segments the snapshot supersedes.
//   - Boot is snapshot-load + tail-replay: the rounds go back to the GRIS,
//     which serves them until their warm grace runs out, and recovered
//     registrations are served under a grace window until their first
//     post-boot refresh or TTL lapse.
//
// Every record carries absolute values (a round replaces its backend's
// previous one; registry records carry absolute deadlines and counters),
// which makes tail replay over a newer snapshot idempotent: the snapshot
// watermark is read before state capture, so a record may be both inside
// the snapshot and replayed, and converges either way.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"mds2/internal/ldap"
)

// Record types. WAL segments and snapshot bodies share one framing. Types 1
// and 2 (directory-store upserts and removals) are retired: a data directory
// that holds them fails recovery with "unknown record type".
const (
	recRefresh   byte = 3 // batch of absolute-state registration refreshes
	recRegRemove byte = 4 // explicit registration removals (keys)
	recRegExpire byte = 5 // TTL expirations observed by the registry (keys)
	recSnapEnd   byte = 6 // snapshot end marker: counts prove completeness
	recRound     byte = 7 // one backend's completed provider round
)

// Framing: u32le body length | u32le CRC-32C of the body | body.
// Body: u8 type | u64le LSN | u64le unix-nano timestamp | payload.
const (
	frameHeader = 8
	bodyHeader  = 17
	// maxRecordBytes bounds a single record (a decode-side sanity check so
	// a corrupt length prefix cannot drive a giant allocation). The largest
	// legitimate producer is one provider round, far below this.
	maxRecordBytes = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt reports a structurally invalid record payload. The framing
// CRC catches torn or bit-rotted frames; this catches records whose frame
// verified but whose payload does not parse (a version skew or a bug).
var errCorrupt = errors.New("persist: corrupt record payload")

// record is one decoded WAL or snapshot record. payload aliases the scan
// buffer and must be consumed before the next scan step.
type record struct {
	typ     byte
	lsn     uint64
	ts      int64 // injected-clock unix nanoseconds at append time
	payload []byte
}

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, typ byte, lsn uint64, ts int64, payload []byte) []byte {
	bodyLen := bodyHeader + len(payload)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(bodyLen))
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	bodyAt := len(buf)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ts))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(buf[bodyAt:], castagnoli))
	return buf
}

// scanRecords iterates the framed records in b in order, stopping at the
// first torn or corrupt frame. It returns the byte offset of the valid
// prefix (len(b) when fully consumed): recovery truncates there rather
// than trusting anything past the damage. A non-nil error from fn aborts
// the scan and is returned.
func scanRecords(b []byte, fn func(rec record) error) (int, error) {
	off := 0
	for {
		rest := b[off:]
		if len(rest) < frameHeader {
			return off, nil
		}
		bodyLen := int(binary.LittleEndian.Uint32(rest))
		if bodyLen < bodyHeader || bodyLen > maxRecordBytes || bodyLen > len(rest)-frameHeader {
			return off, nil
		}
		body := rest[frameHeader : frameHeader+bodyLen]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return off, nil
		}
		rec := record{
			typ:     body[0],
			lsn:     binary.LittleEndian.Uint64(body[1:]),
			ts:      int64(binary.LittleEndian.Uint64(body[9:])),
			payload: body[bodyHeader:],
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += frameHeader + bodyLen
	}
}

// reader is a bounds-checked cursor over a record payload: decode reports
// errCorrupt on any overrun, never panics, and never allocates more than
// the bytes actually present.
type reader struct {
	b   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	r.off += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, errCorrupt
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *reader) i64() (int64, error) {
	if len(r.b)-r.off < 8 {
		return 0, errCorrupt
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, errCorrupt
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSlice(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// capHint bounds a count-prefix-driven preallocation: trust small counts,
// cap large ones so a corrupt prefix cannot balloon memory before the
// element decode fails naturally.
func capHint(n uint64, max int) int {
	if n > uint64(max) {
		return max
	}
	return int(n)
}

// encodeRound renders one provider round: the backend name, then each
// entry as its DN string plus its attributes. The entries are the round's
// immutable snapshots — read here, never retained or mutated.
func encodeRound(buf []byte, backend string, entries []*ldap.Entry) []byte {
	buf = appendString(buf, backend)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.DN.String())
		attrs := e.Attributes()
		buf = binary.AppendUvarint(buf, uint64(len(attrs)))
		for _, a := range attrs {
			buf = appendString(buf, a.Name)
			buf = binary.AppendUvarint(buf, uint64(len(a.Values)))
			for _, v := range a.Values {
				buf = appendString(buf, v)
			}
		}
	}
	return buf
}

func decodeRound(payload []byte) (string, []*ldap.Entry, error) {
	r := &reader{b: payload}
	backend, err := r.str()
	if err != nil {
		return "", nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	entries := make([]*ldap.Entry, 0, capHint(n, 1024))
	for i := uint64(0); i < n; i++ {
		dnStr, err := r.str()
		if err != nil {
			return "", nil, err
		}
		dn, err := ldap.ParseDN(dnStr)
		if err != nil {
			return "", nil, fmt.Errorf("%w: bad DN %q: %v", errCorrupt, dnStr, err)
		}
		na, err := r.uvarint()
		if err != nil {
			return "", nil, err
		}
		attrs := make([]ldap.Attribute, 0, capHint(na, 256))
		for j := uint64(0); j < na; j++ {
			name, err := r.str()
			if err != nil {
				return "", nil, err
			}
			nv, err := r.uvarint()
			if err != nil {
				return "", nil, err
			}
			vals := make([]string, 0, capHint(nv, 256))
			for k := uint64(0); k < nv; k++ {
				v, err := r.str()
				if err != nil {
					return "", nil, err
				}
				vals = append(vals, v)
			}
			attrs = append(attrs, ldap.Attribute{Name: name, Values: vals})
		}
		entries = append(entries, &ldap.Entry{DN: dn, Attrs: attrs})
	}
	if r.off != len(r.b) {
		return "", nil, errCorrupt
	}
	return backend, entries, nil
}

// regItem is the journaled absolute state of one registration. Every field
// is an absolute value (deadline timestamps, the running refresh count),
// not a delta — replaying a suffix of records over a snapshot that already
// contains them lands on the same state.
type regItem struct {
	key         string
	expiresAt   int64 // unix nanoseconds
	joinedAt    int64
	lastRefresh int64
	refreshes   uint64
	payload     []byte // codec-encoded; nil when absent or not encodable
}

func encodeRegItems(buf []byte, items []regItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = appendString(buf, it.key)
		buf = appendI64(buf, it.expiresAt)
		buf = appendI64(buf, it.joinedAt)
		buf = appendI64(buf, it.lastRefresh)
		buf = binary.AppendUvarint(buf, it.refreshes)
		if it.payload == nil {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 1)
			buf = appendSlice(buf, it.payload)
		}
	}
	return buf
}

func decodeRegItems(payload []byte) ([]regItem, error) {
	r := &reader{b: payload}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	items := make([]regItem, 0, capHint(n, 1024))
	for i := uint64(0); i < n; i++ {
		var it regItem
		if it.key, err = r.str(); err != nil {
			return nil, err
		}
		if it.expiresAt, err = r.i64(); err != nil {
			return nil, err
		}
		if it.joinedAt, err = r.i64(); err != nil {
			return nil, err
		}
		if it.lastRefresh, err = r.i64(); err != nil {
			return nil, err
		}
		if it.refreshes, err = r.uvarint(); err != nil {
			return nil, err
		}
		tag, err := r.byte()
		if err != nil {
			return nil, err
		}
		switch tag {
		case 0:
		case 1:
			b, err := r.bytes()
			if err != nil {
				return nil, err
			}
			// The scan buffer is transient; the payload outlives it.
			it.payload = append([]byte(nil), b...)
		default:
			return nil, errCorrupt
		}
		items = append(items, it)
	}
	if r.off != len(r.b) {
		return nil, errCorrupt
	}
	return items, nil
}

func encodeKeys(buf []byte, keys []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
	}
	return buf
}

func decodeKeys(payload []byte) ([]string, error) {
	r := &reader{b: payload}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, capHint(n, 1024))
	for i := uint64(0); i < n; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	if r.off != len(r.b) {
		return nil, errCorrupt
	}
	return keys, nil
}

// encodeSnapEnd seals a snapshot body: the counts double as a completeness
// proof (a partially written snapshot cannot end with a valid marker whose
// counts match what was read).
func encodeSnapEnd(buf []byte, rounds, items int) []byte {
	buf = binary.AppendUvarint(buf, uint64(rounds))
	return binary.AppendUvarint(buf, uint64(items))
}

func decodeSnapEnd(payload []byte) (rounds, items uint64, err error) {
	r := &reader{b: payload}
	if rounds, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if items, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if r.off != len(r.b) {
		return 0, 0, errCorrupt
	}
	return rounds, items, nil
}
