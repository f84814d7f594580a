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

	// scanned is the allocation a server's scan built the request in, which
	// holds its base DN and plan; nil for a request built in process.
	scanned *scannedSearch
}

// Base returns the request's base object, BaseDN parsed: cut once by the
// scan for a request a server received, parsed afresh for one built in
// process or whose BaseDN was replaced since. The DN is shared by every
// call: read it, do not write into it.
func (r *SearchRequest) Base() (DN, error) {
	if ss := r.scanned; ss != nil && r.BaseDN == ss.baseText {
		return ss.base, ss.baseErr
	}
	return ParseDN(r.BaseDN)
}

// Plan returns the request's filter compiled (nil, matching all, for no
// filter): compiled once by the scan for a request a server received,
// afresh for one built in process or whose Filter was replaced since.
func (r *SearchRequest) Plan() *Compiled {
	if ss := r.scanned; ss != nil && ss.plan.Source() == r.Filter {
		return ss.plan
	}
	return r.Filter.Compile()
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

// cloneBytes copies b at its exact size: a frame whose strings a message
// views, or a byte field a message keeps, so that it survives the frame's
// reuse.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
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

// NewPersistentSearchControl builds the subscription control. Its value is
// SEQUENCE { changeTypes INTEGER, changesOnly BOOLEAN, returnECs BOOLEAN }.
func NewPersistentSearchControl(ps PersistentSearch) Control {
	var b ber.Builder
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.Int(ps.ChangeTypes)
	b.Bool(ps.ChangesOnly)
	b.Bool(ps.ReturnECs)
	b.End()
	return Control{OID: OIDPersistentSearch, Criticality: true, Value: b.Bytes()}
}

// ParsePersistentSearch decodes a persistent-search control value.
func ParsePersistentSearch(c Control) (PersistentSearch, error) {
	if c.OID != OIDPersistentSearch {
		return PersistentSearch{}, fmt.Errorf("%w: not a persistent search control", ErrBadMessage)
	}
	var s scanner
	seq, rest := s.next(c.Value, idSequence)
	s.end(rest, "persistent search value")
	changeTypes, seq := s.int(seq, idInteger)
	changesOnly, seq := s.bool(seq)
	returnECs, seq := s.bool(seq)
	s.end(seq, "persistent search value")
	if s.err != nil {
		return PersistentSearch{}, s.err
	}
	return PersistentSearch{ChangeTypes: changeTypes, ChangesOnly: changesOnly, ReturnECs: returnECs}, nil
}

// NewEntryChangeControl builds the notification control attached to each
// streamed persistent-search entry. Its value is SEQUENCE { changeType
// ENUMERATED }.
func NewEntryChangeControl(changeType int64) Control {
	var b ber.Builder
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.Enum(changeType)
	b.End()
	return Control{OID: OIDEntryChangeNotification, Value: b.Bytes()}
}

// ParseEntryChange extracts the change type from an entry-change control,
// whose value may also carry the draft's OPTIONAL previousDN and
// changeNumber: SEQUENCE { changeType ENUMERATED, previousDN LDAPDN
// OPTIONAL, changeNumber INTEGER OPTIONAL }.
func ParseEntryChange(c Control) (int64, error) {
	if c.OID != OIDEntryChangeNotification {
		return 0, fmt.Errorf("%w: not an entry change control", ErrBadMessage)
	}
	var s scanner
	seq, rest := s.next(c.Value, idSequence)
	s.end(rest, "entry change value")
	changeType, seq := s.int(seq, idEnumerated)
	_, seq, _ = s.optional(seq, idOctetString)
	if len(seq) > 0 {
		_, seq = s.int(seq, idInteger)
	}
	s.end(seq, "entry change value")
	if s.err != nil {
		return 0, s.err
	}
	return changeType, nil
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
