package ldap

import (
	"bytes"
	"fmt"

	"mds2/internal/ber"
)

// This file is the wire path's read side: one scanner that decodes every
// LDAPMessage either read loop receives straight off its frame, with no
// ber.Packet tree in between.
//
// A message is scanned in two passes. The first walks the frame where it
// lies, checks every tag and length down to the last leaf, and counts what
// the message holds; the second cuts the message out of arrays of exactly
// those sizes — one for all its strings, one for its filter's nodes, and so
// on. Its strings and byte fields view one exact-size copy of the frame,
// made only when some of them are non-empty: a successful done message is
// its Message and nothing else. A search request is one allocation
// (scannedSearch) that holds those arrays and the frame copy when they fit,
// and the base DN and filter plan every handler would otherwise make of it
// again. A server's read loop reuses its frame
// buffer, and keeps a GRRP Add's values for as long as the registration
// lives, where views would pin the whole Add frame; so on a server every
// request but a search copies each string it keeps instead.
//
// A directory that chains a search needs one thing from each result entry a
// child sends back — its name, to graft, order and dedup it — and otherwise
// passes the entry on; a broker often reads little more. So the client's
// read loop validates a SearchResultEntry with the same walk and builds no
// attributes: the entry keeps its name and its attribute list as the bytes
// they arrived in (see Entry), to be re-emitted as they are or decoded when
// something asks.
//
// The scanner accepts the language DESIGN §9 settles: RFC 4511's BER with
// one-octet identifiers and definite lengths (long forms, minimal or not),
// primitive OCTET STRINGs, and universal INTEGER, ENUMERATED, BOOLEAN,
// SEQUENCE and SET exactly where RFC 4511 puts them, every field in its
// place and nothing after the last. Anything else is refused, and the
// connection that sent it is closed; so every byte a directory relays was
// checked. FuzzScanMessage holds the scanner to the Packet-tree decoder the
// tests keep as their oracle: what the scanner accepts, the oracle accepts
// as the same message, and whatever the oracle accepts, the scanner accepts
// in this package's own encoding.

// One-octet BER identifiers of LDAP messages.
const (
	idBoolean     = 0x01
	idInteger     = 0x02
	idOctetString = 0x04
	idEnumerated  = 0x0a
	idSequence    = 0x30
	idSet         = 0x31
	idControls    = 0x80 | 0x20     // [0], constructed, after the operation
	idReferrals   = 0x80 | 0x20 | 3 // [3], constructed, in an LDAPResult

	// Operations: [APPLICATION n], constructed but for three.
	idBindRequest     = 0x60 | byte(appBindRequest)
	idBindResponse    = 0x60 | byte(appBindResponse)
	idUnbindRequest   = 0x40 | byte(appUnbindRequest) // NULL
	idSearchRequest   = 0x60 | byte(appSearchRequest)
	idSearchEntry     = 0x60 | byte(appSearchEntry)
	idSearchDone      = 0x60 | byte(appSearchDone)
	idModifyRequest   = 0x60 | byte(appModifyRequest)
	idModifyResponse  = 0x60 | byte(appModifyResponse)
	idAddRequest      = 0x60 | byte(appAddRequest)
	idAddResponse     = 0x60 | byte(appAddResponse)
	idDelRequest      = 0x40 | byte(appDelRequest) // LDAPDN
	idDelResponse     = 0x60 | byte(appDelResponse)
	idAbandonRequest  = 0x40 | byte(appAbandonRequest) // MessageID
	idSearchReference = 0x60 | byte(appSearchReference)
	idExtendedRequest = 0x60 | byte(appExtendedRequest)
	idExtendedResp    = 0x60 | byte(appExtendedResp)

	// Context-tagged fields of operations, primitive but for SASL's.
	idSimpleAuth   = 0x80 | 0        // BindRequest: simple password
	idSASLAuth     = 0x80 | 0x20 | 3 // BindRequest: SaslCredentials
	idServerCreds  = 0x80 | 7        // BindResponse: serverSaslCreds
	idExtName      = 0x80 | 0        // ExtendedRequest: requestName
	idExtValue     = 0x80 | 1        // ExtendedRequest: requestValue
	idExtRespName  = 0x80 | 10       // ExtendedResponse: responseName
	idExtRespValue = 0x80 | 11       // ExtendedResponse: responseValue

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

// ScanMessage decodes one complete LDAPMessage frame. The message keeps
// nothing of frame: its strings and byte fields view one exact-size copy of
// it. A frame outside the language is refused with an error wrapping
// ErrBadMessage.
func ScanMessage(frame []byte) (*Message, error) {
	return scanMessage(frame, false)
}

// scanDone is ScanMessage for a SearchResultDone frame, built into into
// instead of an allocation of its own.
func scanDone(frame []byte, into *doneMessage) (*Message, error) {
	var s scanner
	s.done(frame, into)
	if s.err != nil {
		return nil, s.err
	}
	s.second()
	return s.done(s.owned(frame), into), s.err
}

// done reads a SearchResultDone message into into, as message would.
func (s *scanner) done(frame []byte, into *doneMessage) *Message {
	id, op, list := s.envelope(frame)
	if s.err != nil {
		return nil
	}
	s.op = op[0]
	_, body, _ := s.elem(op)
	r, body := s.result(body)
	s.end(body, "result")
	ctls := s.controls(list)
	if !s.build || s.err != nil {
		return nil
	}
	into.op = SearchResultDone{r}
	into.msg = Message{ID: id, Op: &into.op, Controls: ctls}
	return &into.msg
}

// DecodeMessage decodes one LDAPMessage from its BER element, by scanning
// the element marshaled back to bytes. It is an adapter for the one caller
// left holding a Packet, bench's layer pass (bench/cmd/bench/layers.go), and
// goes when ROADMAP item 1(g) times the scanner there instead.
func DecodeMessage(p *ber.Packet) (*Message, error) {
	return ScanMessage(ber.Marshal(p))
}

// scanMessage is ScanMessage with the server's choice of copies: with
// copyRequests, every message but a search request gets strings and byte
// fields of their own instead of views.
func scanMessage(frame []byte, copyRequests bool) (*Message, error) {
	var s scanner
	s.message(frame)
	if s.err != nil {
		return nil, s.err
	}
	s.copy = copyRequests && s.op != idSearchRequest
	if s.op == idSearchRequest {
		s.search = new(scannedSearch)
	}
	s.second()
	m := s.message(s.owned(frame))
	if s.err != nil {
		return nil, s.err // a name ParseDN refuses
	}
	return m, nil
}

// scanControls decodes a control list, as envelope returns it, into
// controls that view one exact-size copy of it.
func scanControls(list []byte) ([]Control, error) {
	if len(list) == 0 {
		return nil, nil
	}
	var s scanner
	s.controls(list)
	if s.err != nil {
		return nil, s.err
	}
	s.second()
	return s.controls(s.owned(list)), nil
}

// scanner is the state of one scan. Its zero value is a first pass, which
// allocates nothing: on its own it is a validating reader for anything laid
// out in a message's elements (an entry to relay, a control's value).
//
// Its readers take the bytes a field starts at and return what they read
// and the bytes after it. Once the message is refused, every reader returns
// nothing, so every walk of a list ends.
type scanner struct {
	build bool  // the second pass
	copy  bool  // strings and byte fields are copies of their own, not views
	err   error // why the message is refused
	op    byte  // the operation's identifier
	keep  int   // bytes of strings and byte fields, counted by the first pass
	n     struct{ strs, attrs, nodes, subs, ctls, mods int }

	// search is a search request's one allocation, made for the second pass.
	search *scannedSearch

	// The arrays of the second pass, at the sizes n counted. Each list a
	// message holds is a run of one of them, capped at its own end, so that
	// appending to one list never writes into the next.
	strs  []string
	attrs []Attribute
	nodes []Filter
	subs  []*Filter
	ctls  []Control
	mods  []ModifyChange
}

// second turns s into the second pass: it makes the arrays the first pass
// counted, or cuts them from a search request's allocation where they fit.
func (s *scanner) second() {
	s.build = true
	if ss := s.search; ss != nil {
		s.strs = makeRun(ss.strs[:], s.n.strs)
		s.nodes = makeRun(ss.nodes[:], s.n.nodes)
		s.subs = makeRun(ss.subs[:], s.n.subs)
	} else {
		s.strs = makeRun[string](nil, s.n.strs)
		s.nodes = makeRun[Filter](nil, s.n.nodes)
	}
	s.attrs = makeRun[Attribute](nil, s.n.attrs)
	s.ctls = makeRun[Control](nil, s.n.ctls)
	s.mods = makeRun[ModifyChange](nil, s.n.mods)
}

// owned returns what the second pass walks: b itself, or, when some string
// or byte field is to view it, a copy of it — in a search request's
// allocation when it fits there.
func (s *scanner) owned(b []byte) []byte {
	switch {
	case s.copy || s.keep == 0:
		return b
	case s.search != nil && len(b) <= len(s.search.frame):
		return s.search.frame[:copy(s.search.frame[:], b):len(b)]
	}
	return cloneBytes(b)
}

// makeRun returns an empty array with room for n items: inline, when it has
// room for them, or one of its own; nil when n is 0.
func makeRun[T any](inline []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case n <= len(inline):
		return inline[:0:n]
	}
	return make([]T, 0, n)
}

// run returns the items of a from first on, capped at their end; nil when
// there are none.
func run[T any](a []T, first int) []T {
	if len(a) == first {
		return nil
	}
	return a[first:len(a):len(a)]
}

// fail refuses the message, unless it already is.
func (s *scanner) fail(why string) {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %s", ErrBadMessage, why)
	}
}

// elem cuts the element at the front of b, whatever its identifier.
func (s *scanner) elem(b []byte) (id byte, contents, rest []byte) {
	if s.err != nil {
		return 0, nil, nil
	}
	id, contents, rest, err := ber.Element(b)
	if err != nil {
		s.err = fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	return id, contents, rest
}

// next is elem for an element that must have identifier want. It cuts an
// element of the short form — nearly every one a message has — itself.
func (s *scanner) next(b []byte, want byte) (contents, rest []byte) {
	if len(b) >= 2 && b[0] == want && b[1] < 0x80 && int(b[1]) <= len(b)-2 && s.err == nil {
		n := 2 + int(b[1])
		return b[2:n], b[n:]
	}
	id, contents, rest := s.elem(b)
	if s.err == nil && id != want {
		s.fail(fmt.Sprintf("element %#02x where %#02x belongs", id, want))
		return nil, nil
	}
	return contents, rest
}

// optional is next for an OPTIONAL field, which is there iff b starts with
// identifier id.
func (s *scanner) optional(b []byte, id byte) (contents, rest []byte, present bool) {
	if len(b) == 0 || b[0] != id {
		return nil, b, false
	}
	contents, rest = s.next(b, id)
	return contents, rest, true
}

// end refuses the message unless b, the rest of a constructed element, is
// empty: nothing follows a last field.
func (s *scanner) end(b []byte, what string) {
	if len(b) > 0 {
		s.trailing(what)
	}
}

// trailing is end's failure path, kept out of line so that end inlines.
//
//go:noinline
func (s *scanner) trailing(what string) { s.fail("trailing data after " + what) }

// int reads an INTEGER or ENUMERATED of 1 to 8 octets.
func (s *scanner) int(b []byte, id byte) (int64, []byte) {
	v, rest := s.next(b, id)
	if s.err != nil {
		return 0, nil
	}
	n, err := ber.ParseInt64(v)
	if err != nil {
		s.err = fmt.Errorf("%w: %w", ErrBadMessage, err)
	}
	return n, rest
}

// bool reads a BOOLEAN of one octet, TRUE unless it is 0x00.
func (s *scanner) bool(b []byte) (bool, []byte) {
	v, rest := s.next(b, idBoolean)
	if s.err == nil && len(v) != 1 {
		s.fail("BOOLEAN not of one octet")
	}
	return s.err == nil && v[0] != 0, rest
}

// str returns the contents of a string field.
func (s *scanner) str(v []byte) string {
	switch {
	case !s.build:
		s.keep += len(v)
		return ""
	case s.copy:
		return string(v)
	}
	return ber.View(v)
}

// bytes returns the contents of a byte field that is there, so never nil.
func (s *scanner) bytes(v []byte) []byte {
	switch {
	case !s.build:
		s.keep += len(v)
		return nil
	case len(v) == 0:
		return []byte{}
	case s.copy:
		return cloneBytes(v)
	}
	return v[:len(v):len(v)]
}

// strList reads the contents of a SEQUENCE OF or SET OF OCTET STRING.
func (s *scanner) strList(list []byte) []string {
	first := len(s.strs)
	for len(list) > 0 {
		var v []byte
		v, list = s.next(list, idOctetString)
		if v := s.str(v); s.build {
			s.strs = append(s.strs, v)
		} else {
			s.n.strs++
		}
	}
	return run(s.strs, first)
}

// envelope splits a complete LDAPMessage frame — SEQUENCE { messageID
// INTEGER, protocolOp, controls [0] OPTIONAL }, and nothing after it — into
// its message ID, its operation element and the contents of its control
// list, nil when it has none. It checks the operation's header, not its
// contents.
func (s *scanner) envelope(frame []byte) (id int64, op, controls []byte) {
	env, rest := s.next(frame, idSequence)
	s.end(rest, "message")
	id, env = s.int(env, idInteger)
	_, _, rest = s.elem(env)
	op = env[:len(env)-len(rest)]
	controls, rest, _ = s.optional(rest, idControls)
	s.end(rest, "controls")
	return id, op, controls
}

// message reads a whole LDAPMessage frame.
func (s *scanner) message(frame []byte) *Message {
	id, op, list := s.envelope(frame)
	if s.err != nil {
		return nil
	}
	s.op = op[0]
	m := s.operation(id, op)
	if ctls := s.controls(list); m != nil {
		m.Controls = ctls
	}
	return m
}

// newOp returns a Message with the given ID carrying op, the two in one
// allocation; nil in the first pass, or once the message is refused.
func newOp[T any, P interface {
	*T
	Op
}](s *scanner, id int64, op T) *Message {
	if !s.build || s.err != nil {
		return nil
	}
	m := &struct {
		msg Message
		op  T
	}{op: op}
	m.msg = Message{ID: id, Op: P(&m.op)}
	return &m.msg
}

// operation reads the protocolOp element op of the message with the given ID.
func (s *scanner) operation(id int64, op []byte) *Message {
	tag, body, _ := s.elem(op)
	switch tag {
	case idBindRequest:
		version, body := s.int(body, idInteger)
		name, body := s.next(body, idOctetString)
		auth, v, body := s.elem(body)
		s.end(body, "bind request")
		r := BindRequest{Version: version, Name: s.str(name)}
		switch auth {
		case idSimpleAuth:
			r.Password = s.str(v)
		case idSASLAuth:
			mech, v := s.next(v, idOctetString)
			creds, v, present := s.optional(v, idOctetString)
			s.end(v, "SASL credentials")
			if r.SASLMech = s.str(mech); present {
				r.SASLCreds = s.bytes(creds)
			}
		default:
			s.fail(fmt.Sprintf("bind authentication choice %#02x", auth))
		}
		return newOp(s, id, r)
	case idBindResponse:
		res, body := s.result(body)
		creds, body, present := s.optional(body, idServerCreds)
		s.end(body, "bind response")
		r := BindResponse{Result: res}
		if present {
			r.ServerCreds = s.bytes(creds)
		}
		return newOp(s, id, r)
	case idUnbindRequest:
		s.end(body, "unbind request")
		return newOp(s, id, UnbindRequest{})
	case idSearchRequest:
		return s.searchRequest(id, body)
	case idSearchEntry:
		return newOp(s, id, SearchResultEntry{Entry: s.entry(body)})
	case idSearchReference:
		return newOp(s, id, SearchResultReference{URLs: s.strList(body)})
	case idSearchDone, idAddResponse, idDelResponse, idModifyResponse:
		r, body := s.result(body)
		s.end(body, "result")
		switch tag {
		case idSearchDone:
			return newOp(s, id, SearchResultDone{r})
		case idAddResponse:
			return newOp(s, id, AddResponse{r})
		case idDelResponse:
			return newOp(s, id, DelResponse{r})
		}
		return newOp(s, id, ModifyResponse{r})
	case idModifyRequest:
		dn, body := s.next(body, idOctetString)
		changes, body := s.next(body, idSequence)
		s.end(body, "modify request")
		return newOp(s, id, ModifyRequest{DN: s.str(dn), Changes: s.modifications(changes)})
	case idAddRequest:
		return newOp(s, id, AddRequest{Entry: s.entry(body)})
	case idDelRequest:
		return newOp(s, id, DelRequest{DN: s.str(body)})
	case idAbandonRequest:
		n, err := ber.ParseInt64(body)
		if err != nil {
			s.fail("abandon request: " + err.Error())
		}
		return newOp(s, id, AbandonRequest{IDToAbandon: n})
	case idExtendedRequest:
		name, body := s.next(body, idExtName)
		if s.err == nil && len(name) == 0 {
			s.fail("extended request without a name")
		}
		value, body, present := s.optional(body, idExtValue)
		s.end(body, "extended request")
		r := ExtendedRequest{OID: s.str(name)}
		if present {
			r.Value = s.bytes(value)
		}
		return newOp(s, id, r)
	case idExtendedResp:
		res, body := s.result(body)
		name, body, _ := s.optional(body, idExtRespName)
		value, body, present := s.optional(body, idExtRespValue)
		s.end(body, "extended response")
		r := ExtendedResponse{Result: res, OID: s.str(name)}
		if present {
			r.Value = s.bytes(value)
		}
		return newOp(s, id, r)
	}
	s.fail(fmt.Sprintf("operation %#02x", tag))
	return nil
}

// result reads the LDAPResult fields a response opens with: resultCode
// ENUMERATED, matchedDN, diagnosticMessage, referral [3] OPTIONAL.
func (s *scanner) result(b []byte) (Result, []byte) {
	code, b := s.int(b, idEnumerated)
	matched, b := s.next(b, idOctetString)
	message, b := s.next(b, idOctetString)
	referrals, b, _ := s.optional(b, idReferrals)
	return Result{Code: ResultCode(code), MatchedDN: s.str(matched), Message: s.str(message),
		Referrals: s.strList(referrals)}, b
}

// searchEntry validates a SearchResultEntry operation element, as envelope
// returns it, down to its last value, and yields the entry name and the
// attribute list element, header included, both aliasing op.
func (s *scanner) searchEntry(op []byte) (dn, attrs []byte) {
	body, _ := s.next(op, idSearchEntry)
	dn, attrs = s.next(body, idOctetString)
	list, rest := s.next(attrs, idSequence)
	s.attributes(list)
	s.end(rest, "entry")
	return dn, attrs
}

// entry reads the contents of a SearchResultEntry or an AddRequest — LDAPDN,
// then the attribute list — into a decoded entry. The name is parsed in the
// second pass only.
func (s *scanner) entry(body []byte) *Entry {
	name, body := s.next(body, idOctetString)
	list, body := s.next(body, idSequence)
	s.end(body, "entry")
	dnText, attrs := s.str(name), s.attributes(list)
	if !s.build || s.err != nil {
		return nil
	}
	dn, err := ParseDN(dnText)
	if err != nil {
		s.err = err
		return nil
	}
	return &Entry{DN: dn, Attrs: attrs}
}

// attributes reads the contents of an attribute list: SEQUENCE OF SEQUENCE
// { type OCTET STRING, vals SET OF OCTET STRING }.
func (s *scanner) attributes(list []byte) []Attribute {
	first := len(s.attrs)
	for len(list) > 0 {
		var attr []byte
		attr, list = s.next(list, idSequence)
		name, attr := s.next(attr, idOctetString)
		values, attr := s.next(attr, idSet)
		s.end(attr, "attribute")
		if a := (Attribute{Name: s.str(name), Values: s.strList(values)}); s.build {
			s.attrs = append(s.attrs, a)
		} else {
			s.n.attrs++
		}
	}
	return run(s.attrs, first)
}

// modifications reads the changes of a ModifyRequest: SEQUENCE OF SEQUENCE
// { operation ENUMERATED, modification SEQUENCE { type, SET OF value } }.
func (s *scanner) modifications(list []byte) []ModifyChange {
	first := len(s.mods)
	for len(list) > 0 {
		var change []byte
		change, list = s.next(list, idSequence)
		op, change := s.int(change, idEnumerated)
		mod, change := s.next(change, idSequence)
		s.end(change, "change")
		name, mod := s.next(mod, idOctetString)
		values, mod := s.next(mod, idSet)
		s.end(mod, "modification")
		if c := (ModifyChange{Op: op, Attr: Attribute{Name: s.str(name), Values: s.strList(values)}}); s.build {
			s.mods = append(s.mods, c)
		} else {
			s.n.mods++
		}
	}
	return run(s.mods, first)
}

// controls reads the contents of a control list: each Control a SEQUENCE
// { controlType OCTET STRING, criticality BOOLEAN OPTIONAL, controlValue
// OCTET STRING OPTIONAL }, in that order.
func (s *scanner) controls(list []byte) []Control {
	first := len(s.ctls)
	for len(list) > 0 {
		var ctl []byte
		ctl, list = s.next(list, idSequence)
		oid, ctl := s.next(ctl, idOctetString)
		c := Control{OID: s.str(oid)}
		if len(ctl) > 0 && ctl[0] == idBoolean {
			c.Criticality, ctl = s.bool(ctl)
		}
		value, ctl, present := s.optional(ctl, idOctetString)
		s.end(ctl, "control")
		if present {
			c.Value = s.bytes(value)
		}
		if s.build {
			s.ctls = append(s.ctls, c)
		} else {
			s.n.ctls++
		}
	}
	return run(s.ctls, first)
}

// scannedSearch is the one allocation behind a scanned search request: its
// envelope and operation, the base DN and the plan the scan makes of them
// (SearchRequest.Base and Plan), and inline arrays sized for a GRIP query —
// the frame copy its strings view, its attribute list, its filter's nodes
// and subfilter pointers, its plan's, and its base DN's RDNs and AVAs. An
// enquiry, (&(objectclass=…)(hn=…)) at "ou=…, o=…", fits with room to spare,
// as does a discovery's (&(objectclass=…)(rack=…)(!(jobid=…))). What
// outgrows an array gets one of its own.
type scannedSearch struct {
	msg Message
	op  SearchRequest

	baseText string // the BaseDN base and baseErr were parsed from
	base     DN
	baseErr  error
	plan     *Compiled

	strs  [4]string
	nodes [5]Filter
	subs  [4]*Filter
	plans [5]Compiled
	psubs [4]*Compiled
	rdns  [4]RDN
	avas  [4]AVA
	frame [256]byte // last: the collector need not look past the pointers
}

// searchRequest reads the eight fields of a SearchRequest, then cuts its
// base DN and compiles its filter. A base DN that does not parse leaves the
// request as it is, for its handler to answer; the error is Base's.
func (s *scanner) searchRequest(id int64, body []byte) *Message {
	base, body := s.next(body, idOctetString)
	scope, body := s.int(body, idEnumerated)
	deref, body := s.int(body, idEnumerated)
	size, body := s.int(body, idInteger)
	limit, body := s.int(body, idInteger)
	typesOnly, body := s.bool(body)
	// The filter is at depth 2 of its frame: envelope, operation, filter.
	filter, body := s.subfilter(body, 2)
	attrs, body := s.next(body, idSequence)
	s.end(body, "search request")
	r := SearchRequest{BaseDN: s.str(base), Scope: Scope(scope), DerefAlias: deref, SizeLimit: size,
		TimeLimit: limit, TypesOnly: typesOnly, Filter: filter, Attributes: s.strList(attrs)}
	ss := s.search
	if !s.build || s.err != nil {
		return nil
	}
	ss.op, ss.baseText = r, r.BaseDN
	ss.op.scanned = ss
	ss.msg = Message{ID: id, Op: &ss.op}
	slab := dnSlab{rdns: ss.rdns[:], avas: ss.avas[:], fixed: true}
	ss.base, _, ss.baseErr = parseDN(r.BaseDN, &slab)
	ss.plan = r.Filter.compileInto(ss.plans[:], ss.psubs[:])
	return &ss.msg
}

// subfilter reads the filter element at the front of b, at the given depth
// of its frame, into the next node; in the first pass into a scratch node,
// which it does not return.
func (s *scanner) subfilter(b []byte, depth int) (*Filter, []byte) {
	if !s.build {
		s.n.nodes++
		var scratch Filter
		return nil, s.filter(b, depth, &scratch)
	}
	s.nodes = s.nodes[:len(s.nodes)+1]
	f := &s.nodes[len(s.nodes)-1]
	return f, s.filter(b, depth, f)
}

// filter reads the filter element at the front of b into f. The depth of
// every element, leaves included, is bounded as ber bounds a Packet tree's.
func (s *scanner) filter(b []byte, depth int, f *Filter) (rest []byte) {
	id, body, rest := s.elem(b)
	if depth > ber.MaxDepth {
		s.fail("filter nested too deep")
		return nil
	}
	f.Kind = FilterKind(id & 0x1f)
	switch id {
	case idFilterAnd, idFilterOr, idFilterNot:
		k := 0
		for r := body; len(r) > 0; k++ {
			_, _, r, _ = ber.Element(r)
		}
		if k == 0 || id == idFilterNot && k != 1 {
			s.fail(fmt.Sprintf("filter %#02x of %d", id, k))
			return nil
		}
		if s.build {
			first := len(s.subs)
			s.subs = s.subs[:first+k]
			f.Subs = s.subs[first : first+k : first+k]
		} else {
			s.n.subs += k
		}
		for i := 0; i < k; i++ {
			var sub *Filter
			if sub, body = s.subfilter(body, depth+1); s.build {
				f.Subs[i] = sub
			}
		}
		s.end(body, "filter")
	case idFilterPresent:
		f.Attr = s.str(body)
	case idFilterEquality, idFilterGE, idFilterLE, idFilterApprox:
		if depth+1 > ber.MaxDepth {
			s.fail("filter nested too deep")
		}
		attr, body := s.next(body, idOctetString)
		value, body := s.next(body, idOctetString)
		s.end(body, "attribute value assertion")
		f.Attr, f.Value = s.str(attr), s.str(value)
	case idFilterSubstrings:
		attr, body := s.next(body, idOctetString)
		parts, body := s.next(body, idSequence)
		s.end(body, "substrings filter")
		if depth+2 > ber.MaxDepth {
			s.fail("filter nested too deep")
		}
		f.Attr = s.str(attr)
		s.substrings(parts, f)
	default:
		s.fail(fmt.Sprintf("filter choice %#02x", id))
	}
	return rest
}

// substrings reads the components of a substrings filter into f: initial
// [0], any [1] and final [2], in that order, initial and final at most once,
// and not all of them empty.
func (s *scanner) substrings(parts []byte, f *Filter) {
	first, prev, text := len(s.strs), byte(0), false
	for len(parts) > 0 {
		var id byte
		var v []byte
		if id, v, parts = s.elem(parts); s.err != nil {
			return
		}
		if id < idSubInitial || id > idSubFinal || id < prev || id == prev && id != idSubAny {
			s.fail(fmt.Sprintf("substring component %#02x", id))
			return
		}
		prev, text = id, text || id == idSubAny || len(v) > 0
		switch id {
		case idSubInitial:
			f.Initial = s.str(v)
		case idSubAny:
			if v := s.str(v); s.build {
				s.strs = append(s.strs, v)
			} else {
				s.n.strs++
			}
		case idSubFinal:
			f.Final = s.str(v)
		}
	}
	if !text {
		s.fail("substrings filter without a component")
	}
	f.Any = run(s.strs, first)
}

// wireEntries builds the wire-backed entries of one connection, and holds
// the slices its collected replies are gathered in. Entries of a collected
// result, and the RDN and AVA arrays of their names, are cut from small
// slabs rather than allocated one by one: a relayed entry lives for a
// single search, and a cached one is copied out by CompactSnapshots (a kept
// one by Clone) before it is kept.
type wireEntries struct {
	slab  []Entry
	names dnSlab
	// replies are emptied gather slices, ready for the next reply (borrow,
	// handOver): a reply costs its caller one slice, not one grown entry by
	// entry.
	replies [][]*Entry
}

// Gathered replies: a slice is taken back after a reply while it holds at
// most maxGathered entries, and at most maxSpareReplies wait to be reused.
const (
	maxGathered     = 4096
	maxSpareReplies = 8
)

// borrow returns an empty slice to gather one collected reply in.
func (w *wireEntries) borrow() []*Entry {
	if n := len(w.replies); n > 0 {
		r := w.replies[n-1]
		w.replies = w.replies[:n-1]
		return r
	}
	return make([]*Entry, 0, 64)
}

// handOver ends a collected reply gathered in a borrowed slice: it returns
// an exact-size copy for the caller to own (nil for an empty reply), and
// takes the slice back, emptied.
func (w *wireEntries) handOver(gathered []*Entry) []*Entry {
	if gathered == nil {
		return nil
	}
	out := make([]*Entry, len(gathered))
	copy(out, gathered)
	clear(gathered)
	if cap(gathered) <= maxGathered && len(w.replies) < maxSpareReplies {
		w.replies = append(w.replies, gathered[:0])
	}
	return out
}

// next returns the wire-backed entry for a scanned frame. The name is
// parsed where it lies, its AVA strings viewing the name bytes; when the
// received text is the canonical rendering of what it parses to, the entry
// also keeps those bytes to be sent again as they are. The name bytes and
// attrs are kept as they are, aliasing the frame, whose chunk the read loop
// then never reuses — unless the entry is to own its bytes: a streamed
// entry is kept for as long as its receiver likes (a subscriber holds one
// per notification), so it gets one exact-size copy of its name and
// attribute list, made before the name is parsed so that the name's strings
// view the copy, DN arrays and an allocation of its own, and pins neither a
// read chunk nor a slab.
func (w *wireEntries) next(dn, attrs []byte, own bool) (*Entry, error) {
	names := &w.names
	var e *Entry
	if own {
		buf := make([]byte, 0, len(dn)+len(attrs))
		buf = append(append(buf, dn...), attrs...)
		dn, attrs = buf[:len(dn):len(dn)], buf[len(dn):]
		names, e = nil, new(Entry)
	}
	d, canonical, err := parseDN(ber.View(dn), names)
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
	if e == nil {
		if len(w.slab) == 0 {
			w.slab = make([]Entry, 32)
		}
		e, w.slab = &w.slab[0], w.slab[1:]
	}
	e.DN, e.name, e.raw = d, dn, attrs
	e.seal()
	return e, nil
}
