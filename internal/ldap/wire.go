package ldap

import (
	"bytes"

	"mds2/internal/ber"
)

// This file is the result half of the wire path. A directory that chains a
// search needs one thing from each result entry a child sends back — its
// name, to graft, order and dedup it — and otherwise passes the entry on; a
// broker often reads little more. So instead of tree-decoding every
// SearchResultEntry into Packets and an Entry (DecodeMessage), the client's
// read loop scans the frame in place, for every search: one pass, no
// allocation, validating every length and tag on the way, and yielding the
// name plus the attribute list as the bytes it arrived in (see Entry), to be
// re-emitted as they are or decoded when something asks.
//
// The scanner accepts exactly the canonical shape this package's encoder
// emits — one-octet identifiers, universal INTEGER / OCTET STRING / SEQUENCE
// / SET where RFC 4511 says so, no controls, nothing trailing. Anything else
// is not refused but handed to the tree decoder, which alone decides whether
// a frame is LDAP; so a frame is accepted by a connection iff DecodeMessage
// accepts it, and bytes are relayed only if every one of them was checked
// here. FuzzWireEntry pins both.

// One-octet BER identifiers of the canonical SearchResultEntry frame.
const (
	idInteger     = 0x02
	idOctetString = 0x04
	idSequence    = 0x30
	idSet         = 0x31
	idSearchEntry = 0x40 | 0x20 | byte(appSearchEntry) // [APPLICATION 4], constructed
)

// scanEnvelope splits a complete LDAPMessage frame that carries no controls
// into its message ID and its operation element. ok is false for any frame
// outside the canonical shape, which the caller then tree-decodes.
func scanEnvelope(frame []byte) (id int64, op []byte, ok bool) {
	tag, body, rest, err := ber.Element(frame)
	if err != nil || tag != idSequence || len(rest) != 0 {
		return 0, nil, false
	}
	tag, idBytes, op, err := ber.Element(body)
	if err != nil || tag != idInteger {
		return 0, nil, false
	}
	if id, err = ber.ParseInt64(idBytes); err != nil {
		return 0, nil, false
	}
	if _, _, rest, err = ber.Element(op); err != nil || len(rest) != 0 {
		return 0, nil, false
	}
	return id, op, true
}

// scanSearchEntry validates a SearchResultEntry operation element (as
// scanEnvelope returns it) down to its last value and yields the entry name
// and the PartialAttributeList element, header included, both aliasing op.
func scanSearchEntry(op []byte) (dn, attrs []byte, ok bool) {
	tag, body, _, err := ber.Element(op)
	if err != nil || tag != idSearchEntry {
		return nil, nil, false
	}
	tag, dn, attrs, err = ber.Element(body)
	if err != nil || tag != idOctetString {
		return nil, nil, false
	}
	tag, list, rest, err := ber.Element(attrs)
	if err != nil || tag != idSequence || len(rest) != 0 {
		return nil, nil, false
	}
	for len(list) > 0 {
		var attr, vals, set []byte
		if tag, attr, list, err = ber.Element(list); err != nil || tag != idSequence {
			return nil, nil, false
		}
		if tag, _, vals, err = ber.Element(attr); err != nil || tag != idOctetString {
			return nil, nil, false
		}
		if tag, set, rest, err = ber.Element(vals); err != nil || tag != idSet || len(rest) != 0 {
			return nil, nil, false
		}
		for len(set) > 0 {
			if tag, _, set, err = ber.Element(set); err != nil || tag != idOctetString {
				return nil, nil, false
			}
		}
	}
	return dn, attrs, true
}

// wireEntries builds the wire-backed entries of one connection. Entries of
// a collected result, and the RDN and AVA arrays of their names, are cut
// from small slabs rather than allocated one by one: a relayed entry lives
// for a single search, and a cached one is copied out by CompactSnapshots
// (a kept one by Clone) before it is kept.
type wireEntries struct {
	slab  []Entry
	names dnSlab
}

// next returns the wire-backed entry for a scanned frame. The name is
// copied out of the frame as one string and parsed; when the received text
// is the canonical rendering of what it parses to, the entry also keeps
// those bytes to be sent again as they are. The name bytes and attrs are
// kept as they are, aliasing the frame — unless the entry is to own its
// bytes: a streamed entry is kept for as long as its receiver likes (a
// subscriber holds one per notification), so it gets one exact-size copy of
// its name and attribute list, DN arrays and an allocation of its own, and
// pins neither a read chunk nor a slab.
func (w *wireEntries) next(dn, attrs []byte, own bool) (*Entry, error) {
	names := &w.names
	if own {
		names = nil
	}
	d, canonical, err := parseDN(string(dn), names)
	if err != nil {
		return nil, err
	}
	if !canonical && bytes.IndexByte(dn, '\\') >= 0 {
		// Names with escapes are rare: the rendering decides for them.
		canonical = d.String() == string(dn)
	}
	if !canonical {
		dn = nil
	}
	var e *Entry
	if own {
		buf := make([]byte, 0, len(dn)+len(attrs))
		buf = append(append(buf, dn...), attrs...)
		e = new(Entry)
		if dn != nil {
			dn = buf[:len(dn):len(dn)]
		}
		attrs = buf[len(dn):]
	} else {
		if len(w.slab) == 0 {
			w.slab = make([]Entry, 32)
		}
		e, w.slab = &w.slab[0], w.slab[1:]
	}
	e.DN, e.name, e.raw = d, dn, attrs
	e.seal()
	return e, nil
}
