package ldap

import (
	"errors"
	"fmt"

	"mds2/internal/ber"
)

// Scope is an LDAP search scope.
type Scope int64

// Search scopes (RFC 4511 §4.5.1.2).
const (
	ScopeBaseObject   Scope = 0
	ScopeSingleLevel  Scope = 1
	ScopeWholeSubtree Scope = 2
)

func (s Scope) String() string {
	switch s {
	case ScopeBaseObject:
		return "base"
	case ScopeSingleLevel:
		return "one"
	case ScopeWholeSubtree:
		return "sub"
	}
	return fmt.Sprintf("scope(%d)", int64(s))
}

// ResultCode is an LDAP result code.
type ResultCode int64

// Result codes used by this implementation (RFC 4511 appendix A).
const (
	ResultSuccess                  ResultCode = 0
	ResultOperationsError          ResultCode = 1
	ResultProtocolError            ResultCode = 2
	ResultTimeLimitExceeded        ResultCode = 3
	ResultSizeLimitExceeded        ResultCode = 4
	ResultAuthMethodNotSupported   ResultCode = 7
	ResultStrongerAuthRequired     ResultCode = 8
	ResultReferral                 ResultCode = 10
	ResultNoSuchAttribute          ResultCode = 16
	ResultNoSuchObject             ResultCode = 32
	ResultInvalidCredentials       ResultCode = 49
	ResultInsufficientAccessRights ResultCode = 50
	ResultBusy                     ResultCode = 51
	ResultUnavailable              ResultCode = 52
	ResultUnwillingToPerform       ResultCode = 53
	ResultEntryAlreadyExists       ResultCode = 68
	ResultOther                    ResultCode = 80
)

func (c ResultCode) String() string {
	switch c {
	case ResultSuccess:
		return "success"
	case ResultProtocolError:
		return "protocolError"
	case ResultTimeLimitExceeded:
		return "timeLimitExceeded"
	case ResultSizeLimitExceeded:
		return "sizeLimitExceeded"
	case ResultReferral:
		return "referral"
	case ResultNoSuchObject:
		return "noSuchObject"
	case ResultInvalidCredentials:
		return "invalidCredentials"
	case ResultInsufficientAccessRights:
		return "insufficientAccessRights"
	case ResultUnavailable:
		return "unavailable"
	case ResultUnwillingToPerform:
		return "unwillingToPerform"
	case ResultEntryAlreadyExists:
		return "entryAlreadyExists"
	}
	return fmt.Sprintf("resultCode(%d)", int64(c))
}

// Result is the common LDAPResult component of response operations.
type Result struct {
	Code      ResultCode
	MatchedDN string
	Message   string
	Referrals []string
}

// Err converts a non-success Result into an error, nil otherwise.
func (r Result) Err() error {
	if r.Code == ResultSuccess {
		return nil
	}
	return &ResultError{Result: r}
}

// ResultError wraps a non-success LDAP result as a Go error.
type ResultError struct{ Result Result }

func (e *ResultError) Error() string {
	if e.Result.Message != "" {
		return fmt.Sprintf("ldap: %s: %s", e.Result.Code, e.Result.Message)
	}
	return "ldap: " + e.Result.Code.String()
}

// IsCode reports whether err is a ResultError carrying the given code.
func IsCode(err error, code ResultCode) bool {
	var re *ResultError
	return errors.As(err, &re) && re.Result.Code == code
}

// Application tags for protocol operations (RFC 4511 §4).
const (
	appBindRequest     uint32 = 0
	appBindResponse    uint32 = 1
	appUnbindRequest   uint32 = 2
	appSearchRequest   uint32 = 3
	appSearchEntry     uint32 = 4
	appSearchDone      uint32 = 5
	appModifyRequest   uint32 = 6
	appModifyResponse  uint32 = 7
	appAddRequest      uint32 = 8
	appAddResponse     uint32 = 9
	appDelRequest      uint32 = 10
	appDelResponse     uint32 = 11
	appAbandonRequest  uint32 = 16
	appSearchReference uint32 = 19
	appExtendedRequest uint32 = 23
	appExtendedResp    uint32 = 24
)

// Op is one LDAP protocol operation carried inside a Message envelope; it
// encodes itself into a ber.Builder (see emit.go).
type Op interface {
	appendOp(*ber.Builder)
}

// Message is the LDAPMessage envelope: an ID, an operation, and optional
// controls.
type Message struct {
	ID       int64
	Op       Op
	Controls []Control
}

// Control is an RFC 4511 §4.1.11 control.
type Control struct {
	OID         string
	Criticality bool
	Value       []byte
}

// Operations.

// BindRequest authenticates a connection. SASLMech empty means simple bind
// with Password; otherwise SASLCreds carries mechanism-specific data (the
// GSI SASL binding uses this).
type BindRequest struct {
	Version   int64
	Name      string
	Password  string
	SASLMech  string
	SASLCreds []byte
}

// BindResponse reports bind outcome; ServerCreds returns mechanism data for
// multi-step SASL exchanges.
type BindResponse struct {
	Result
	ServerCreds []byte
}

// UnbindRequest terminates the session.
type UnbindRequest struct{}

// SearchRequest is the GRIP enquiry/discovery operation.
type SearchRequest struct {
	BaseDN     string
	Scope      Scope
	DerefAlias int64
	SizeLimit  int64
	TimeLimit  int64 // seconds
	TypesOnly  bool
	Filter     *Filter
	Attributes []string
}

// SearchResultEntry carries one matching entry.
type SearchResultEntry struct {
	Entry *Entry
}

// SearchResultReference carries continuation references (LDAP URLs), used by
// a GIIS that cannot chain restricted data and instead refers the client to
// the authoritative GRIS (§10.4).
type SearchResultReference struct {
	URLs []string
}

// SearchResultDone terminates a search.
type SearchResultDone struct{ Result }

// AddRequest inserts an entry; MDS-2.1 maps GRRP registrations onto Add.
type AddRequest struct{ Entry *Entry }

// AddResponse reports add outcome.
type AddResponse struct{ Result }

// DelRequest removes an entry by DN.
type DelRequest struct{ DN string }

// DelResponse reports delete outcome.
type DelResponse struct{ Result }

// ModifyRequest applies attribute changes to an entry.
type ModifyRequest struct {
	DN      string
	Changes []ModifyChange
}

// Modify operations.
const (
	ModAdd     int64 = 0
	ModDelete  int64 = 1
	ModReplace int64 = 2
)

// ModifyChange is one modification.
type ModifyChange struct {
	Op   int64
	Attr Attribute
}

// ModifyResponse reports modify outcome.
type ModifyResponse struct{ Result }

// AbandonRequest cancels the operation with the given message ID; used to
// terminate persistent-search subscriptions.
type AbandonRequest struct{ IDToAbandon int64 }

// ExtendedRequest invokes a named extended operation.
type ExtendedRequest struct {
	OID   string
	Value []byte
}

// ExtendedResponse reports an extended operation outcome.
type ExtendedResponse struct {
	Result
	OID   string
	Value []byte
}

// Encode serializes the message envelope to wire bytes.
func (m *Message) Encode() []byte {
	return m.AppendTo(nil)
}

// ErrBadMessage reports a wire message that does not parse as LDAP.
var ErrBadMessage = errors.New("ldap: malformed message")

// cloneBytes copies b at its exact size: a frame a read loop is about to
// reuse, or a decoded []byte field, so that what is kept survives the reuse.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// DecodeMessage parses one LDAPMessage from its BER element.
func DecodeMessage(p *ber.Packet) (*Message, error) {
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

// ParseMessageBytes decodes an LDAPMessage from raw wire bytes.
func ParseMessageBytes(b []byte) (*Message, error) {
	p, err := ber.DecodeFull(b)
	if err != nil {
		return nil, err
	}
	return DecodeMessage(p)
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

// Persistent search (draft-ietf-ldapext-psearch, cited as [32] in the paper)
// lets GRIP support subscription: the server holds the search open and
// streams entry-change notifications.

// Control OIDs.
const (
	// OIDPersistentSearch requests subscription semantics on a search.
	OIDPersistentSearch = "2.16.840.1.113730.3.4.3"
	// OIDEntryChangeNotification accompanies streamed change entries.
	OIDEntryChangeNotification = "2.16.840.1.113730.3.4.7"
)

// Change types for persistent search.
const (
	ChangeAdd    int64 = 1
	ChangeDelete int64 = 2
	ChangeModify int64 = 4
	ChangeAll    int64 = 1 | 2 | 4 | 8
)

// PersistentSearch describes the decoded persistent-search control value.
type PersistentSearch struct {
	ChangeTypes int64
	ChangesOnly bool
	ReturnECs   bool
}

// NewPersistentSearchControl builds the subscription control.
func NewPersistentSearchControl(ps PersistentSearch) Control {
	val := ber.Marshal(ber.NewSequence().Append(
		ber.NewInteger(ps.ChangeTypes),
		ber.NewBoolean(ps.ChangesOnly),
		ber.NewBoolean(ps.ReturnECs),
	))
	return Control{OID: OIDPersistentSearch, Criticality: true, Value: val}
}

// ParsePersistentSearch decodes a persistent-search control value.
func ParsePersistentSearch(c Control) (PersistentSearch, error) {
	if c.OID != OIDPersistentSearch {
		return PersistentSearch{}, fmt.Errorf("%w: not a persistent search control", ErrBadMessage)
	}
	p, err := ber.DecodeFull(c.Value)
	if err != nil {
		return PersistentSearch{}, err
	}
	if len(p.Children) != 3 {
		return PersistentSearch{}, fmt.Errorf("%w: bad psearch value", ErrBadMessage)
	}
	ct, err1 := p.Child(0).Int64()
	co, err2 := p.Child(1).Bool()
	re, err3 := p.Child(2).Bool()
	if err := firstErr(err1, err2, err3); err != nil {
		return PersistentSearch{}, err
	}
	return PersistentSearch{ChangeTypes: ct, ChangesOnly: co, ReturnECs: re}, nil
}

// NewEntryChangeControl builds the notification control attached to each
// streamed persistent-search entry.
func NewEntryChangeControl(changeType int64) Control {
	val := ber.Marshal(ber.NewSequence().Append(ber.NewEnumerated(changeType)))
	return Control{OID: OIDEntryChangeNotification, Value: val}
}

// ParseEntryChange extracts the change type from an entry-change control.
func ParseEntryChange(c Control) (int64, error) {
	if c.OID != OIDEntryChangeNotification {
		return 0, fmt.Errorf("%w: not an entry change control", ErrBadMessage)
	}
	p, err := ber.DecodeFull(c.Value)
	if err != nil {
		return 0, err
	}
	if len(p.Children) < 1 {
		return 0, fmt.Errorf("%w: bad entry change value", ErrBadMessage)
	}
	return p.Child(0).Int64()
}

// FindControl returns the first control with the given OID.
func FindControl(controls []Control, oid string) (Control, bool) {
	for _, c := range controls {
		if c.OID == oid {
			return c, true
		}
	}
	return Control{}, false
}
