package ldap

import (
	"bytes"

	"mds2/internal/ber"
)

// This file is the wire path's read side: scanners that build the messages a
// search moves — the request a server reads, the result entries and the
// done message a client reads — straight off the frame, without the
// Packet tree DecodeMessage walks.
//
// A directory that chains a search needs one thing from each result entry a
// child sends back — its name, to graft, order and dedup it — and otherwise
// passes the entry on; a broker often reads little more. So instead of
// tree-decoding every SearchResultEntry into Packets and an Entry, the
// client's read loop scans the frame in place, for every search: one pass, no
// allocation, validating every length and tag on the way, and yielding the
// name plus the attribute list as the bytes it arrived in (see Entry), to be
// re-emitted as they are or decoded when something asks. The done message
// that ends the search is scanned too.
//
// Every server on a discovery's path reads the request before it answers or
// forwards it. A scanned SearchRequest is one validating counting pass over
// the frame where it lies, then one exact-size copy of the frame that all
// its strings view, one allocation for the Message and its SearchRequest,
// and one array each for the filter's nodes and the request's strings.
//
// The scanners accept exactly the canonical shape this package's encoder
// emits — one-octet identifiers, universal INTEGER / ENUMERATED / BOOLEAN /
// OCTET STRING / SEQUENCE / SET where RFC 4511 says so, nothing trailing.
// Anything else is not refused but handed to the tree decoder, which alone
// decides whether a frame is LDAP; so a frame is accepted by a connection iff
// DecodeMessage accepts it, and bytes are relayed only if every one of them
// was checked here. FuzzWireEntry and FuzzScanSearchRequest pin both.

// One-octet BER identifiers of the canonical frames.
const (
	idBoolean       = 0x01
	idInteger       = 0x02
	idOctetString   = 0x04
	idEnumerated    = 0x0a
	idSequence      = 0x30
	idSet           = 0x31
	idSearchRequest = 0x40 | 0x20 | byte(appSearchRequest) // [APPLICATION 3], constructed
	idSearchEntry   = 0x40 | 0x20 | byte(appSearchEntry)   // [APPLICATION 4], constructed
	idSearchDone    = 0x40 | 0x20 | byte(appSearchDone)    // [APPLICATION 5], constructed
	idControls      = 0x80 | 0x20                          // [0], constructed
	idReferrals     = 0x80 | 0x20 | 3                      // [3], constructed

	// Filter choices (RFC 4511 §4.5.1.7): context-tagged by kind, all
	// constructed but present.
	idFilterAnd        = 0x80 | 0x20 | byte(FilterAnd)
	idFilterOr         = 0x80 | 0x20 | byte(FilterOr)
	idFilterNot        = 0x80 | 0x20 | byte(FilterNot)
	idFilterEquality   = 0x80 | 0x20 | byte(FilterEquality)
	idFilterSubstrings = 0x80 | 0x20 | byte(FilterSubstrings)
	idFilterGE         = 0x80 | 0x20 | byte(FilterGE)
	idFilterLE         = 0x80 | 0x20 | byte(FilterLE)
	idFilterPresent    = 0x80 | byte(FilterPresent)
	idFilterApprox     = 0x80 | 0x20 | byte(FilterApprox)
	idSubInitial       = 0x80 | 0 // substring components, context-tagged primitives
	idSubAny           = 0x80 | 1
	idSubFinal         = 0x80 | 2
)

// scanEnvelope splits a complete LDAPMessage frame into its message ID, its
// operation element and its control list — the whole [0] element, nil when
// the frame carries none. ok is false for any frame outside the canonical
// shape, which the caller then tree-decodes.
func scanEnvelope(frame []byte) (id int64, op, controls []byte, ok bool) {
	tag, body, rest, err := ber.Element(frame)
	if err != nil || tag != idSequence || len(rest) != 0 {
		return 0, nil, nil, false
	}
	tag, idBytes, body, err := ber.Element(body)
	if err != nil || tag != idInteger {
		return 0, nil, nil, false
	}
	if id, err = ber.ParseInt64(idBytes); err != nil {
		return 0, nil, nil, false
	}
	if _, _, rest, err = ber.Element(body); err != nil {
		return 0, nil, nil, false
	}
	op = body[:len(body)-len(rest)]
	if len(rest) == 0 {
		return id, op, nil, true
	}
	var after []byte
	if tag, _, after, err = ber.Element(rest); err != nil || tag != idControls || len(after) != 0 {
		return 0, nil, nil, false
	}
	return id, op, rest, true
}

// field cuts the contents of the element at the front of b off it. It is
// for elements a scanner has already validated, and ignores errors.
func field(b []byte) (contents, rest []byte) {
	_, contents, rest, _ = ber.Element(b)
	return contents, rest
}

// intField is field for a validated INTEGER or ENUMERATED.
func intField(b []byte) (int64, []byte) {
	v, rest := field(b)
	n, _ := ber.ParseInt64(v)
	return n, rest
}

// searchCounts sizes the arrays a scanned SearchRequest is cut into.
type searchCounts struct {
	nodes    int // filter nodes
	subs     int // subfilter pointers of And, Or and Not
	attrs    int // requested attribute names
	anys     int // middle substring fragments
	controls int
}

// scanSearchRequest builds the Message of a complete LDAPMessage frame that
// carries a SearchRequest in the canonical shape: the eight RFC 4511 fields
// with OCTET STRING leaves and a one-octet BOOLEAN, filter kinds and arities
// as FilterFromBER takes them, and controls, if any, each SEQUENCE { oid,
// BOOLEAN?, OCTET STRING? } in that order. ok is false for any other frame,
// which the caller hands to the tree decoder. The Message keeps nothing of
// frame: its strings view, and its control values are cut from, one
// exact-size copy that nothing writes, as with DecodeOwned.
func scanSearchRequest(frame []byte) (*Message, bool) {
	_, op, controls, ok := scanEnvelope(frame)
	if !ok || op[0] != idSearchRequest {
		return nil, false
	}
	n, ok := countSearchRequest(op, controls)
	if !ok {
		return nil, false
	}
	return buildSearchRequest(cloneBytes(frame), n), true
}

// countSearchRequest validates a SearchRequest operation element and its
// control list, as scanEnvelope returns them, down to the last leaf, and
// counts what the request holds.
func countSearchRequest(op, controls []byte) (n searchCounts, ok bool) {
	_, body, _, _ := ber.Element(op) // scanEnvelope checked the element
	for _, want := range [...]byte{idOctetString, idEnumerated, idEnumerated, idInteger, idInteger, idBoolean} {
		tag, v, rest, err := ber.Element(body)
		if err != nil || tag != want {
			return n, false
		}
		switch want {
		case idEnumerated, idInteger:
			if _, err := ber.ParseInt64(v); err != nil {
				return n, false
			}
		case idBoolean:
			if len(v) != 1 {
				return n, false
			}
		}
		body = rest
	}
	// The filter is at depth 2 of the frame: envelope, operation, filter.
	tag, filter, body, err := ber.Element(body)
	if err != nil || !countFilter(tag, filter, 2, &n) {
		return n, false
	}
	tag, attrs, body, err := ber.Element(body)
	if err != nil || tag != idSequence || len(body) != 0 {
		return n, false
	}
	for ; len(attrs) > 0; n.attrs++ {
		if tag, _, attrs, err = ber.Element(attrs); err != nil || tag != idOctetString {
			return n, false
		}
	}
	if controls != nil {
		_, list, _, _ := ber.Element(controls)
		for ; len(list) > 0; n.controls++ {
			var ctl []byte
			if tag, ctl, list, err = ber.Element(list); err != nil || tag != idSequence {
				return n, false
			}
			if _, _, _, ok := scanControl(ctl); !ok {
				return n, false
			}
		}
	}
	return n, true
}

// countFilter validates the filter element with identifier id and contents
// body, at the given depth of its frame, and adds what it holds to n. The
// depth of every element, leaves included, is bounded as the tree decoder
// bounds it, so a filter too deep for that decoder is not accepted here
// either.
func countFilter(id byte, body []byte, depth int, n *searchCounts) bool {
	if depth > ber.MaxDepth {
		return false
	}
	n.nodes++
	switch id {
	case idFilterAnd, idFilterOr, idFilterNot:
		k := 0
		for ; len(body) > 0; k++ {
			tag, sub, rest, err := ber.Element(body)
			if err != nil || !countFilter(tag, sub, depth+1, n) {
				return false
			}
			body = rest
		}
		n.subs += k
		return k > 0 && (id != idFilterNot || k == 1)
	case idFilterPresent:
		return true
	case idFilterEquality, idFilterGE, idFilterLE, idFilterApprox:
		tag, _, rest, err := ber.Element(body)
		if err != nil || tag != idOctetString || depth+1 > ber.MaxDepth {
			return false
		}
		tag, _, rest, err = ber.Element(rest)
		return err == nil && tag == idOctetString && len(rest) == 0
	case idFilterSubstrings:
		tag, _, rest, err := ber.Element(body)
		if err != nil || tag != idOctetString {
			return false
		}
		tag, parts, rest, err := ber.Element(rest)
		if err != nil || tag != idSequence || len(rest) != 0 || depth+2 > ber.MaxDepth {
			return false
		}
		// initial? any* final?, in that order, and not all of it empty.
		prev, text := byte(0), false
		for len(parts) > 0 {
			var v []byte
			if tag, v, parts, err = ber.Element(parts); err != nil || tag < idSubInitial || tag > idSubFinal ||
				tag < prev || tag == prev && tag != idSubAny {
				return false
			}
			if tag == idSubAny {
				n.anys++
				text = true
			} else if len(v) > 0 {
				text = true
			}
			prev = tag
		}
		return text
	}
	return false
}

// scanControl splits the contents of one Control: SEQUENCE { controlType,
// criticality BOOLEAN of one octet OPTIONAL, controlValue OCTET STRING
// OPTIONAL }, in that order. value is nil when absent.
func scanControl(ctl []byte) (oid []byte, critical bool, value []byte, ok bool) {
	tag, oid, ctl, err := ber.Element(ctl)
	if err != nil || tag != idOctetString {
		return nil, false, nil, false
	}
	if len(ctl) > 0 && ctl[0] == idBoolean {
		var b []byte
		if _, b, ctl, err = ber.Element(ctl); err != nil || len(b) != 1 {
			return nil, false, nil, false
		}
		critical = b[0] != 0
	}
	if len(ctl) > 0 {
		if tag, value, ctl, err = ber.Element(ctl); err != nil || tag != idOctetString || len(ctl) != 0 {
			return nil, false, nil, false
		}
	}
	return oid, critical, value, true
}

// scannedSearch is the one allocation behind a scanned search request's
// envelope and operation, with room for the subfilter pointers of a typical
// GRIP query: (&(objectclass=…)(hn=…)) needs two.
type scannedSearch struct {
	msg  Message
	op   SearchRequest
	subs [4]*Filter
}

// buildSearchRequest cuts the request countSearchRequest accepted out of
// own, the frame's copy, into arrays of the sizes it counted. Every slice it
// hands out is capped at its own length, so appending to one never writes
// into a neighbour.
func buildSearchRequest(own []byte, n searchCounts) *Message {
	id, op, controls, _ := scanEnvelope(own)
	s := new(scannedSearch)
	s.msg = Message{ID: id, Op: &s.op}
	a := filterArena{nodes: make([]Filter, n.nodes), subs: s.subs[:]}
	if n.subs > len(s.subs) {
		a.subs = make([]*Filter, n.subs)
	}
	if n.anys > 0 {
		a.strs = make([]string, n.anys)
	}
	body, _ := field(op)
	base, body := field(body)
	scope, body := intField(body)
	deref, body := intField(body)
	size, body := intField(body)
	limit, body := intField(body)
	typesOnly, body := field(body)
	filterID := body[0]
	filter, body := field(body)
	attrs, _ := field(body)
	s.op = SearchRequest{BaseDN: ber.View(base), Scope: Scope(scope), DerefAlias: deref,
		SizeLimit: size, TimeLimit: limit, TypesOnly: typesOnly[0] != 0, Filter: a.filter(filterID, filter)}
	if n.attrs > 0 {
		s.op.Attributes = make([]string, n.attrs)
		for i := range s.op.Attributes {
			var v []byte
			v, attrs = field(attrs)
			s.op.Attributes[i] = ber.View(v)
		}
	}
	if n.controls > 0 {
		s.msg.Controls = make([]Control, n.controls)
		list, _ := field(controls)
		for i := range s.msg.Controls {
			var ctl []byte
			ctl, list = field(list)
			oid, critical, value, _ := scanControl(ctl)
			s.msg.Controls[i] = Control{OID: ber.View(oid), Criticality: critical, Value: value[:len(value):len(value)]}
		}
	}
	return &s.msg
}

// filterArena hands out the nodes, subfilter pointers and middle substring
// fragments of one scanned filter, in the order filter takes them.
type filterArena struct {
	nodes []Filter
	subs  []*Filter
	strs  []string
}

// filter builds the filter countFilter accepted from its identifier and
// contents.
func (a *filterArena) filter(id byte, body []byte) *Filter {
	f := &a.nodes[0]
	a.nodes = a.nodes[1:]
	f.Kind = FilterKind(id & 0x1f)
	switch id {
	case idFilterAnd, idFilterOr, idFilterNot:
		k := 0
		for rest := body; len(rest) > 0; k++ {
			_, rest = field(rest)
		}
		f.Subs, a.subs = a.subs[:k:k], a.subs[k:]
		for i := range f.Subs {
			sid := body[0]
			var sub []byte
			sub, body = field(body)
			f.Subs[i] = a.filter(sid, sub)
		}
	case idFilterPresent:
		f.Attr = ber.View(body)
	case idFilterSubstrings:
		attr, rest := field(body)
		parts, _ := field(rest)
		f.Attr = ber.View(attr)
		k := 0
		for rest := parts; len(rest) > 0; {
			if rest[0] == idSubAny {
				k++
			}
			_, rest = field(rest)
		}
		if k > 0 {
			f.Any, a.strs = a.strs[:k:k], a.strs[k:]
		}
		for i := 0; len(parts) > 0; {
			part := parts[0]
			var v []byte
			v, parts = field(parts)
			switch part {
			case idSubInitial:
				f.Initial = ber.View(v)
			case idSubAny:
				f.Any[i] = ber.View(v)
				i++
			case idSubFinal:
				f.Final = ber.View(v)
			}
		}
	default: // Equality, GE, LE, Approx: AttributeValueAssertion
		attr, rest := field(body)
		value, _ := field(rest)
		f.Attr, f.Value = ber.View(attr), ber.View(value)
	}
	return f
}

// scannedDone is the one allocation behind a scanned SearchResultDone.
type scannedDone struct {
	msg  Message
	done SearchResultDone
}

// scanSearchDone builds the Message of a SearchResultDone operation element,
// as scanEnvelope returns it from a frame without controls: ENUMERATED
// resultCode, matchedDN, diagnosticMessage and an optional [3] referral list
// of OCTET STRINGs, nothing else. Its strings view one copy of the
// operation's contents, made only when it has some: a success is the Message
// alone.
func scanSearchDone(id int64, op []byte) (*Message, bool) {
	_, body, _, _ := ber.Element(op) // scanEnvelope checked the element
	tag, v, rest, err := ber.Element(body)
	if err != nil || tag != idEnumerated {
		return nil, false
	}
	code, err := ber.ParseInt64(v)
	if err != nil {
		return nil, false
	}
	var matched, message []byte
	if tag, matched, rest, err = ber.Element(rest); err != nil || tag != idOctetString {
		return nil, false
	}
	if tag, message, rest, err = ber.Element(rest); err != nil || tag != idOctetString {
		return nil, false
	}
	refs := 0
	if len(rest) > 0 {
		var list []byte
		if tag, list, rest, err = ber.Element(rest); err != nil || tag != idReferrals || len(rest) != 0 {
			return nil, false
		}
		for ; len(list) > 0; refs++ {
			if tag, _, list, err = ber.Element(list); err != nil || tag != idOctetString {
				return nil, false
			}
		}
	}
	d := new(scannedDone)
	d.msg = Message{ID: id, Op: &d.done}
	d.done.Code = ResultCode(code)
	if len(matched) == 0 && len(message) == 0 && refs == 0 {
		return &d.msg, true
	}
	_, rest = field(cloneBytes(body)) // past the code
	matched, rest = field(rest)
	message, rest = field(rest)
	d.done.MatchedDN, d.done.Message = ber.View(matched), ber.View(message)
	if refs > 0 {
		list, _ := field(rest)
		d.done.Referrals = make([]string, refs)
		for i := range d.done.Referrals {
			v, list = field(list)
			d.done.Referrals[i] = ber.View(v)
		}
	}
	return &d.msg, true
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
