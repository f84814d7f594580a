package ldap

import "mds2/internal/ber"

// This file is the encode path: every Op serializes itself into a
// ber.Builder, so a full LDAPMessage reaches wire bytes without an
// intermediate Packet tree. The tree encoder survives only in wire_test.go,
// as the reference TestEncodeDifferential and FuzzEncodeDecode hold this
// path to, byte for byte; its decoding twin is oracle_test.go.

// AppendTo serializes the message envelope onto dst and returns the
// extended slice. The connections' own writers encode with a builder of
// their own (connWriter); this is for everything else.
func (m *Message) AppendTo(dst []byte) []byte {
	var b ber.Builder
	b.Reset(dst)
	m.appendTo(&b)
	return b.Bytes()
}

// appendTo emits the whole message onto b.
func (m *Message) appendTo(b *ber.Builder) {
	beginMessage(b, m.ID)
	m.Op.appendOp(b)
	endMessage(b, m.Controls)
}

// appendEntryMessage emits the message carrying e restricted to attrs as a
// SearchResultEntry — what appendTo emits for e.Project(attrs), without
// building the Message, the Op or the projection: a search writer sends one
// per result entry.
func appendEntryMessage(b *ber.Builder, id int64, e *Entry, attrs []string, controls []Control) {
	beginMessage(b, id)
	appendProjectedEntry(b, e, attrs)
	endMessage(b, controls)
}

// beginMessage opens the LDAPMessage envelope and emits its ID; the caller
// appends the operation and closes it with endMessage.
func beginMessage(b *ber.Builder, id int64) {
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.Int(id)
}

// endMessage emits the envelope's controls and closes it.
func endMessage(b *ber.Builder, controls []Control) {
	if len(controls) > 0 {
		b.Begin(ber.ClassContext, 0)
		for _, c := range controls {
			b.Begin(ber.ClassUniversal, ber.TagSequence)
			b.OctetString(c.OID)
			if c.Criticality {
				b.Bool(true)
			}
			if c.Value != nil {
				b.OctetStringBytes(c.Value)
			}
			b.End()
		}
		b.End()
	}
	b.End()
}

// appendDN emits d's canonical text rendering (identical to DN.String) as
// an OCTET STRING, without materializing the intermediate string.
func appendDN(b *ber.Builder, d DN) {
	b.BeginPrimitive(ber.ClassUniversal, ber.TagOctetString)
	for i, rdn := range d {
		if i > 0 {
			b.RawString(", ")
		}
		for j, ava := range rdn {
			if j > 0 {
				b.RawString("+")
			}
			b.RawString(escapeDNValue(ava.Attr))
			b.RawString("=")
			b.RawString(escapeDNValue(ava.Value))
		}
	}
	b.End()
}

// appendAttrList emits a PartialAttributeList: SEQUENCE OF SEQUENCE
// { type, SET OF value }.
func appendAttrList(b *ber.Builder, attrs []Attribute) {
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	for _, a := range attrs {
		b.Begin(ber.ClassUniversal, ber.TagSequence)
		b.OctetString(a.Name)
		b.Begin(ber.ClassUniversal, ber.TagSet)
		for _, v := range a.Values {
			b.OctetString(v)
		}
		b.End()
		b.End()
	}
	b.End()
}

// beginResult opens an application-tagged LDAPResult and emits the common
// fields; the caller appends any trailing components and calls End.
func beginResult(b *ber.Builder, tag uint32, r Result) {
	b.Begin(ber.ClassApplication, tag)
	b.Enum(int64(r.Code))
	b.OctetString(r.MatchedDN)
	b.OctetString(r.Message)
	if len(r.Referrals) > 0 {
		b.Begin(ber.ClassContext, 3)
		for _, u := range r.Referrals {
			b.OctetString(u)
		}
		b.End()
	}
}

// appendFilter emits f in the RFC 4511 wire form.
func appendFilter(b *ber.Builder, f *Filter) {
	switch f.Kind {
	case FilterAnd, FilterOr:
		b.Begin(ber.ClassContext, uint32(f.Kind))
		for _, sub := range f.Subs {
			appendFilter(b, sub)
		}
		b.End()
	case FilterNot:
		b.Begin(ber.ClassContext, uint32(FilterNot))
		appendFilter(b, f.Subs[0])
		b.End()
	case FilterPresent:
		b.ContextString(uint32(FilterPresent), f.Attr)
	case FilterSubstrings:
		b.Begin(ber.ClassContext, uint32(FilterSubstrings))
		b.OctetString(f.Attr)
		b.Begin(ber.ClassUniversal, ber.TagSequence)
		if f.Initial != "" {
			b.ContextString(0, f.Initial)
		}
		for _, a := range f.Any {
			b.ContextString(1, a)
		}
		if f.Final != "" {
			b.ContextString(2, f.Final)
		}
		b.End()
		b.End()
	default: // Equality, GE, LE, Approx: AttributeValueAssertion
		b.Begin(ber.ClassContext, uint32(f.Kind))
		b.OctetString(f.Attr)
		b.OctetString(f.Value)
		b.End()
	}
}

// appendOp emits a simple bind unless the request names a SASL mechanism
// or carries SASL credentials; absent credentials (nil) are left out, as
// RFC 4511 has them OPTIONAL.
func (r *BindRequest) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appBindRequest)
	b.Int(r.Version)
	b.OctetString(r.Name)
	if r.SASLMech == "" && r.SASLCreds == nil {
		b.ContextString(0, r.Password)
	} else {
		b.Begin(ber.ClassContext, 3)
		b.OctetString(r.SASLMech)
		if r.SASLCreds != nil {
			b.OctetStringBytes(r.SASLCreds)
		}
		b.End()
	}
	b.End()
}

func (r *BindResponse) appendOp(b *ber.Builder) {
	beginResult(b, appBindResponse, r.Result)
	if r.ServerCreds != nil {
		b.Primitive(ber.ClassContext, 7, r.ServerCreds)
	}
	b.End()
}

func (*UnbindRequest) appendOp(b *ber.Builder) {
	b.Primitive(ber.ClassApplication, appUnbindRequest, nil)
}

func (s *SearchRequest) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appSearchRequest)
	b.OctetString(s.BaseDN)
	b.Enum(int64(s.Scope))
	b.Enum(s.DerefAlias)
	b.Int(s.SizeLimit)
	b.Int(s.TimeLimit)
	b.Bool(s.TypesOnly)
	filter := s.Filter
	if filter == nil {
		filter = Present("objectclass")
	}
	appendFilter(b, filter)
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	for _, a := range s.Attributes {
		b.OctetString(a)
	}
	b.End()
	b.End()
}

func (s *SearchResultEntry) appendOp(b *ber.Builder) { appendEntry(b, s.Entry) }

// appendEntry emits e as a SearchResultEntry operation. A wire-backed entry
// goes out as it came in: its attribute list is one copy of bytes
// scanner.searchEntry already validated, and so is its name when the received
// text was the canonical one appendDN would render. A stored snapshot goes
// out as the form its store recorded, also one copy.
func appendEntry(b *ber.Builder, e *Entry) {
	b.Begin(ber.ClassApplication, appSearchEntry)
	if form := e.form.Load(); form != nil {
		e.verifySeal()
		b.RawBytes(*form)
		b.End()
		return
	}
	if e.raw != nil || e.name != nil {
		e.verifySeal()
	}
	if e.name != nil {
		b.OctetStringBytes(e.name)
	} else {
		appendDN(b, e.DN)
	}
	if e.raw != nil {
		b.RawBytes(e.raw)
	} else {
		appendAttrList(b, e.Attrs)
	}
	b.End()
}

// appendProjectedEntry emits e restricted to attrs as a SearchResultEntry:
// byte for byte appendEntry(b, e.Project(attrs)) — e's name, then each
// requested name e has values for, in the requested spelling, with e's
// values — encoded from e itself. Selecting everything is e as it lies.
func appendProjectedEntry(b *ber.Builder, e *Entry, attrs []string) {
	if selectsAll(attrs) {
		appendEntry(b, e)
		return
	}
	e.verifySeal()
	b.Begin(ber.ClassApplication, appSearchEntry)
	if e.name != nil {
		b.OctetStringBytes(e.name)
	} else {
		appendDN(b, e.DN)
	}
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	for _, r := range attrs {
		vs := e.Values(r)
		if vs == nil {
			continue
		}
		b.Begin(ber.ClassUniversal, ber.TagSequence)
		b.OctetString(r)
		b.Begin(ber.ClassUniversal, ber.TagSet)
		for _, v := range vs {
			b.OctetString(v)
		}
		b.End()
		b.End()
	}
	b.End()
	b.End()
}

func (s *SearchResultReference) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appSearchReference)
	for _, u := range s.URLs {
		b.OctetString(u)
	}
	b.End()
}

func (s *SearchResultDone) appendOp(b *ber.Builder) {
	beginResult(b, appSearchDone, s.Result)
	b.End()
}

func (a *AddRequest) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appAddRequest)
	appendDN(b, a.Entry.DN)
	appendAttrList(b, a.Entry.Attributes())
	b.End()
}

func (a *AddResponse) appendOp(b *ber.Builder) {
	beginResult(b, appAddResponse, a.Result)
	b.End()
}

func (d *DelRequest) appendOp(b *ber.Builder) {
	b.PrimitiveString(ber.ClassApplication, appDelRequest, d.DN)
}

func (d *DelResponse) appendOp(b *ber.Builder) {
	beginResult(b, appDelResponse, d.Result)
	b.End()
}

func (m *ModifyRequest) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appModifyRequest)
	b.OctetString(m.DN)
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	for _, ch := range m.Changes {
		b.Begin(ber.ClassUniversal, ber.TagSequence)
		b.Enum(ch.Op)
		b.Begin(ber.ClassUniversal, ber.TagSequence)
		b.OctetString(ch.Attr.Name)
		b.Begin(ber.ClassUniversal, ber.TagSet)
		for _, v := range ch.Attr.Values {
			b.OctetString(v)
		}
		b.End()
		b.End()
		b.End()
	}
	b.End()
	b.End()
}

func (m *ModifyResponse) appendOp(b *ber.Builder) {
	beginResult(b, appModifyResponse, m.Result)
	b.End()
}

func (a *AbandonRequest) appendOp(b *ber.Builder) {
	b.PrimitiveInt(ber.ClassApplication, appAbandonRequest, a.IDToAbandon)
}

func (e *ExtendedRequest) appendOp(b *ber.Builder) {
	b.Begin(ber.ClassApplication, appExtendedRequest)
	b.ContextString(0, e.OID)
	if e.Value != nil {
		b.Primitive(ber.ClassContext, 1, e.Value)
	}
	b.End()
}

func (e *ExtendedResponse) appendOp(b *ber.Builder) {
	beginResult(b, appExtendedResp, e.Result)
	if e.OID != "" {
		b.ContextString(10, e.OID)
	}
	if e.Value != nil {
		b.Primitive(ber.ClassContext, 11, e.Value)
	}
	b.End()
}
