package ldap

import (
	"fmt"

	"mds2/internal/ber"
)

// This file is the reference decoder: Packet-tree walkers over ber's tree
// codec, the decoding twin of wire_test.go's encodeTree. Slow, lenient and
// obviously right about what it does accept, it is the oracle
// FuzzScanMessage holds the scanner (wire.go) to, and TestScanLanguage pins
// the leniencies of it the scanner drops.

// ParseMessageBytes decodes an LDAPMessage from raw wire bytes through a
// Packet tree.
func ParseMessageBytes(b []byte) (*Message, error) {
	p, err := ber.DecodeFull(b)
	if err != nil {
		return nil, err
	}
	return treeMessage(p)
}

// treeDecode is ParseMessageBytes without the reason: nil for a frame the
// oracle refuses.
func treeDecode(frame []byte) *Message {
	m, err := ParseMessageBytes(frame)
	if err != nil {
		return nil
	}
	return m
}

// treeMessage decodes one LDAPMessage from its BER element.
func treeMessage(p *ber.Packet) (*Message, error) {
	if p == nil || !p.Constructed || p.Tag != ber.TagSequence || len(p.Children) < 2 {
		return nil, fmt.Errorf("%w: bad envelope %s", ErrBadMessage, p)
	}
	id, err := p.Child(0).Int64()
	if err != nil {
		return nil, fmt.Errorf("%w: message ID: %v", ErrBadMessage, err)
	}
	op, err := decodeOp(p.Child(1))
	if err != nil {
		return nil, err
	}
	m := &Message{ID: id, Op: op}
	if c := p.Child(2); c != nil && c.Class == ber.ClassContext && c.Tag == 0 {
		for _, cseq := range c.Children {
			ctl, err := decodeControl(cseq)
			if err != nil {
				return nil, err
			}
			m.Controls = append(m.Controls, ctl)
		}
	}
	return m, nil
}

func decodeControl(p *ber.Packet) (Control, error) {
	if !p.Constructed || len(p.Children) == 0 {
		return Control{}, fmt.Errorf("%w: bad control", ErrBadMessage)
	}
	ctl := Control{OID: p.Child(0).Str()}
	for _, c := range p.Children[1:] {
		switch {
		case c.Tag == ber.TagBoolean && c.Class == ber.ClassUniversal:
			v, err := c.Bool()
			if err != nil {
				return Control{}, err
			}
			ctl.Criticality = v
		case c.Tag == ber.TagOctetString && c.Class == ber.ClassUniversal:
			ctl.Value = cloneBytes(c.Value)
		}
	}
	return ctl, nil
}

func decodeResult(p *ber.Packet) (Result, int, error) {
	if len(p.Children) < 3 {
		return Result{}, 0, fmt.Errorf("%w: short result", ErrBadMessage)
	}
	code, err := p.Child(0).Int64()
	if err != nil {
		return Result{}, 0, err
	}
	r := Result{Code: ResultCode(code), MatchedDN: p.Child(1).Str(), Message: p.Child(2).Str()}
	next := 3
	if c := p.Child(3); c != nil && c.Class == ber.ClassContext && c.Tag == 3 && c.Constructed {
		for _, u := range c.Children {
			r.Referrals = append(r.Referrals, u.Str())
		}
		next = 4
	}
	return r, next, nil
}

func decodeAttrList(p *ber.Packet) ([]Attribute, error) {
	if p == nil || !p.Constructed {
		return nil, fmt.Errorf("%w: bad attribute list", ErrBadMessage)
	}
	var attrs []Attribute
	for _, aseq := range p.Children {
		if len(aseq.Children) != 2 {
			return nil, fmt.Errorf("%w: bad attribute", ErrBadMessage)
		}
		a := Attribute{Name: aseq.Child(0).Str()}
		for _, v := range aseq.Child(1).Children {
			a.Values = append(a.Values, v.Str())
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

func decodeOp(p *ber.Packet) (Op, error) {
	if p.Class != ber.ClassApplication {
		return nil, fmt.Errorf("%w: op not application-tagged: %s", ErrBadMessage, p)
	}
	switch p.Tag {
	case appBindRequest:
		if len(p.Children) < 3 {
			return nil, fmt.Errorf("%w: short bind", ErrBadMessage)
		}
		ver, err := p.Child(0).Int64()
		if err != nil {
			return nil, err
		}
		br := &BindRequest{Version: ver, Name: p.Child(1).Str()}
		auth := p.Child(2)
		switch auth.Tag {
		case 0:
			br.Password = auth.Str()
		case 3:
			if len(auth.Children) < 1 {
				return nil, fmt.Errorf("%w: bad sasl", ErrBadMessage)
			}
			br.SASLMech = auth.Child(0).Str()
			if c := auth.Child(1); c != nil {
				br.SASLCreds = cloneBytes(c.Value)
			}
		default:
			return nil, fmt.Errorf("%w: auth choice %d", ErrBadMessage, auth.Tag)
		}
		return br, nil
	case appBindResponse:
		r, next, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		br := &BindResponse{Result: r}
		if c := p.Child(next); c != nil && c.Class == ber.ClassContext && c.Tag == 7 {
			br.ServerCreds = cloneBytes(c.Value)
		}
		return br, nil
	case appUnbindRequest:
		return &UnbindRequest{}, nil
	case appSearchRequest:
		if len(p.Children) < 8 {
			return nil, fmt.Errorf("%w: short search", ErrBadMessage)
		}
		scope, err1 := p.Child(1).Int64()
		deref, err2 := p.Child(2).Int64()
		size, err3 := p.Child(3).Int64()
		tl, err4 := p.Child(4).Int64()
		typesOnly, err5 := p.Child(5).Bool()
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			return nil, err
		}
		filter, err := FilterFromBER(p.Child(6))
		if err != nil {
			return nil, err
		}
		sr := &SearchRequest{
			BaseDN: p.Child(0).Str(), Scope: Scope(scope), DerefAlias: deref,
			SizeLimit: size, TimeLimit: tl, TypesOnly: typesOnly, Filter: filter,
		}
		for _, a := range p.Child(7).Children {
			sr.Attributes = append(sr.Attributes, a.Str())
		}
		return sr, nil
	case appSearchEntry:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("%w: bad search entry", ErrBadMessage)
		}
		dn, err := ParseDN(p.Child(0).Str())
		if err != nil {
			return nil, err
		}
		attrs, err := decodeAttrList(p.Child(1))
		if err != nil {
			return nil, err
		}
		return &SearchResultEntry{Entry: &Entry{DN: dn, Attrs: attrs}}, nil
	case appSearchReference:
		ref := &SearchResultReference{}
		for _, c := range p.Children {
			ref.URLs = append(ref.URLs, c.Str())
		}
		return ref, nil
	case appSearchDone:
		r, _, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		return &SearchResultDone{Result: r}, nil
	case appAddRequest:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("%w: bad add", ErrBadMessage)
		}
		dn, err := ParseDN(p.Child(0).Str())
		if err != nil {
			return nil, err
		}
		attrs, err := decodeAttrList(p.Child(1))
		if err != nil {
			return nil, err
		}
		return &AddRequest{Entry: &Entry{DN: dn, Attrs: attrs}}, nil
	case appAddResponse:
		r, _, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		return &AddResponse{Result: r}, nil
	case appDelRequest:
		return &DelRequest{DN: p.Str()}, nil
	case appDelResponse:
		r, _, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		return &DelResponse{Result: r}, nil
	case appModifyRequest:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("%w: bad modify", ErrBadMessage)
		}
		mr := &ModifyRequest{DN: p.Child(0).Str()}
		for _, chSeq := range p.Child(1).Children {
			if len(chSeq.Children) != 2 || len(chSeq.Child(1).Children) != 2 {
				return nil, fmt.Errorf("%w: bad change", ErrBadMessage)
			}
			op, err := chSeq.Child(0).Int64()
			if err != nil {
				return nil, err
			}
			ch := ModifyChange{Op: op, Attr: Attribute{Name: chSeq.Child(1).Child(0).Str()}}
			for _, v := range chSeq.Child(1).Child(1).Children {
				ch.Attr.Values = append(ch.Attr.Values, v.Str())
			}
			mr.Changes = append(mr.Changes, ch)
		}
		return mr, nil
	case appModifyResponse:
		r, _, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		return &ModifyResponse{Result: r}, nil
	case appAbandonRequest:
		id, err := ber.ParseInt64(p.Value)
		if err != nil {
			return nil, err
		}
		return &AbandonRequest{IDToAbandon: id}, nil
	case appExtendedRequest:
		er := &ExtendedRequest{}
		for _, c := range p.Children {
			switch c.Tag {
			case 0:
				er.OID = c.Str()
			case 1:
				er.Value = cloneBytes(c.Value)
			}
		}
		if er.OID == "" {
			return nil, fmt.Errorf("%w: extended request without OID", ErrBadMessage)
		}
		return er, nil
	case appExtendedResp:
		r, next, err := decodeResult(p)
		if err != nil {
			return nil, err
		}
		er := &ExtendedResponse{Result: r}
		for _, c := range p.Children[next:] {
			switch c.Tag {
			case 10:
				er.OID = c.Str()
			case 11:
				er.Value = cloneBytes(c.Value)
			}
		}
		return er, nil
	}
	return nil, fmt.Errorf("%w: unknown operation tag %d", ErrBadMessage, p.Tag)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// ToBER encodes the filter in the RFC 4511 wire form as a Packet tree.
func (f *Filter) ToBER() *ber.Packet {
	switch f.Kind {
	case FilterAnd, FilterOr:
		p := ber.NewConstructed(ber.ClassContext, uint32(f.Kind))
		for _, sub := range f.Subs {
			p.Append(sub.ToBER())
		}
		return p
	case FilterNot:
		return ber.NewConstructed(ber.ClassContext, uint32(FilterNot)).Append(f.Subs[0].ToBER())
	case FilterPresent:
		return &ber.Packet{Class: ber.ClassContext, Tag: uint32(FilterPresent), Value: []byte(f.Attr)}
	case FilterSubstrings:
		subs := ber.NewSequence()
		if f.Initial != "" {
			subs.Append(ber.NewContextString(0, f.Initial))
		}
		for _, a := range f.Any {
			subs.Append(ber.NewContextString(1, a))
		}
		if f.Final != "" {
			subs.Append(ber.NewContextString(2, f.Final))
		}
		return ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(
			ber.NewOctetString(f.Attr), subs)
	default: // Equality, GE, LE, Approx: AttributeValueAssertion
		return ber.NewConstructed(ber.ClassContext, uint32(f.Kind)).Append(
			ber.NewOctetString(f.Attr), ber.NewOctetString(f.Value))
	}
}

// FilterFromBER decodes the RFC 4511 wire form of a filter from its Packet
// tree.
func FilterFromBER(p *ber.Packet) (*Filter, error) {
	if p == nil || p.Class != ber.ClassContext {
		return nil, fmt.Errorf("%w: not a context-tagged filter: %s", ErrBadFilter, p)
	}
	kind := FilterKind(p.Tag)
	switch kind {
	case FilterAnd, FilterOr:
		if len(p.Children) == 0 {
			return nil, fmt.Errorf("%w: empty set filter", ErrBadFilter)
		}
		f := &Filter{Kind: kind}
		for _, c := range p.Children {
			sub, err := FilterFromBER(c)
			if err != nil {
				return nil, err
			}
			f.Subs = append(f.Subs, sub)
		}
		return f, nil
	case FilterNot:
		if len(p.Children) != 1 {
			return nil, fmt.Errorf("%w: NOT arity %d", ErrBadFilter, len(p.Children))
		}
		sub, err := FilterFromBER(p.Children[0])
		if err != nil {
			return nil, err
		}
		return Not(sub), nil
	case FilterPresent:
		if p.Constructed {
			return nil, fmt.Errorf("%w: constructed presence filter", ErrBadFilter)
		}
		return Present(p.Str()), nil
	case FilterSubstrings:
		if len(p.Children) != 2 || p.Children[1].Tag != ber.TagSequence {
			return nil, fmt.Errorf("%w: bad substrings shape", ErrBadFilter)
		}
		f := &Filter{Kind: kind, Attr: p.Children[0].Str()}
		for _, c := range p.Children[1].Children {
			switch c.Tag {
			case 0:
				f.Initial = c.Str()
			case 1:
				f.Any = append(f.Any, c.Str())
			case 2:
				f.Final = c.Str()
			default:
				return nil, fmt.Errorf("%w: substring tag %d", ErrBadFilter, c.Tag)
			}
		}
		if f.Initial == "" && f.Final == "" && len(f.Any) == 0 {
			return nil, fmt.Errorf("%w: empty substrings", ErrBadFilter)
		}
		return f, nil
	case FilterEquality, FilterGE, FilterLE, FilterApprox:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("%w: AVA arity %d", ErrBadFilter, len(p.Children))
		}
		return &Filter{Kind: kind, Attr: p.Children[0].Str(), Value: p.Children[1].Str()}, nil
	}
	return nil, fmt.Errorf("%w: unknown filter tag %d", ErrBadFilter, p.Tag)
}
