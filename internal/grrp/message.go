// Package grrp implements the Grid Registration Protocol of §4.3: a
// soft-state notification protocol with which one service component pushes
// simple existence information to another. Each message names the described
// service (a URL to which GRIP messages can be directed), the notification
// type, and timestamps bounding the interval over which the notification
// holds. GRRP does not specify its transport: this package provides an
// unreliable datagram binding (the protocol's design point), and a mapping
// onto LDAP add operations, which is the transport MDS-2.1 adopts (§10.1).
//
// Messages may be authenticated by either of the §7 options: delivery over
// an authenticated channel, or a detached signature with the registering
// entity's credential carried in the message.
package grrp

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
)

// NotificationType distinguishes registration from invitation (§10.4:
// "GRRP can be used for both registration and invitation").
type NotificationType int

// Notification types.
const (
	// TypeRegister announces the sender's availability for indexing.
	TypeRegister NotificationType = iota
	// TypeInvite asks the receiving service to join a VO by registering
	// back with the named directory.
	TypeInvite
)

func (t NotificationType) String() string {
	switch t {
	case TypeRegister:
		return "register"
	case TypeInvite:
		return "invite"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Message is one GRRP notification.
type Message struct {
	Type NotificationType `json:"type"`
	// ServiceURL names the service being described: a URL to which GRIP
	// messages can be directed (for TypeInvite, the directory to register
	// with).
	ServiceURL string `json:"serviceURL"`
	// MDSType describes the service's role ("gris" or "giis"), letting a
	// directory classify children.
	MDSType string `json:"mdsType,omitempty"`
	// VO optionally names the virtual organization this registration is
	// intended for; directories may enforce membership policy on it.
	VO string `json:"vo,omitempty"`
	// SuffixDN is the namespace suffix the registering provider serves,
	// letting the directory scope chained searches.
	SuffixDN string `json:"suffixDN,omitempty"`
	// IssuedAt and ValidUntil bound the interval over which the
	// notification should be considered to hold.
	IssuedAt   time.Time `json:"issuedAt"`
	ValidUntil time.Time `json:"validUntil"`

	// Credential and Signature optionally authenticate the message
	// (detached signature over Canonical()).
	Credential json.RawMessage `json:"credential,omitempty"`
	Signature  []byte          `json:"signature,omitempty"`
}

// Validation errors.
var (
	ErrBadEncoding = errors.New("grrp: malformed message")
	ErrStale       = errors.New("grrp: message validity interval has passed")
	ErrNotYetValid = errors.New("grrp: message not yet valid")
	ErrUnsigned    = errors.New("grrp: unsigned message where signature required")
)

// TTL returns the message's remaining validity from now.
func (m *Message) TTL(now time.Time) time.Duration { return m.ValidUntil.Sub(now) }

// CheckTimes validates the message's interval against now, with a small
// tolerance for clock skew.
func (m *Message) CheckTimes(now time.Time) error {
	const skew = 30 * time.Second
	if now.Add(skew).Before(m.IssuedAt) {
		return fmt.Errorf("%w: issued %s, now %s", ErrNotYetValid, m.IssuedAt, now)
	}
	if now.After(m.ValidUntil.Add(skew)) {
		return fmt.Errorf("%w: until %s, now %s", ErrStale, m.ValidUntil, now)
	}
	return nil
}

// Canonical returns the byte string covered by the signature: the message
// with signature fields cleared, in deterministic JSON.
func (m *Message) Canonical() []byte {
	cp := *m
	cp.Credential = nil
	cp.Signature = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		panic(err) // flat struct of marshalable fields
	}
	return b
}

// Sign attaches the sender's credential and a detached signature.
func (m *Message) Sign(keys *gsi.KeyPair) {
	m.Credential = keys.Credential.Marshal()
	m.Signature = gsi.SignMessage(keys, m.Canonical())
}

// VerifySignature checks the attached credential chain and signature.
// It returns the verified credential for policy decisions.
func (m *Message) VerifySignature(trust *gsi.TrustStore, now time.Time) (*gsi.Credential, error) {
	if len(m.Signature) == 0 || len(m.Credential) == 0 {
		return nil, ErrUnsigned
	}
	cred, err := gsi.UnmarshalCredential(m.Credential)
	if err != nil {
		return nil, err
	}
	if err := gsi.VerifyMessage(trust, cred, m.Canonical(), m.Signature, now); err != nil {
		return nil, err
	}
	return cred, nil
}

// Marshal encodes the message for datagram transport.
func (m *Message) Marshal() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

// Unmarshal decodes a datagram payload.
func Unmarshal(b []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	if m.ServiceURL == "" {
		return nil, fmt.Errorf("%w: missing serviceURL", ErrBadEncoding)
	}
	return &m, nil
}

// EncodePayload serializes a registry payload holding a *Message — the
// shape Receiver.Ingest stores — for durability (internal/persist wires
// these two as its PayloadCodec). Non-Message payloads are refused so the
// WAL never persists state it could not decode back.
func EncodePayload(p any) ([]byte, error) {
	m, ok := p.(*Message)
	if !ok {
		return nil, fmt.Errorf("grrp: payload is %T, not *Message", p)
	}
	return m.Marshal(), nil
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(b []byte) (any, error) {
	m, err := Unmarshal(b)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// The LDAP binding maps a GRRP message onto an add operation (§10.1:
// "GRRP messages mapped onto LDAP add operations and then carried via the
// normal LDAP protocol"). The entry's DN names the registration under the
// directory's registration suffix.

// RegistrationSuffix is the DN under which GRRP-carried adds are placed.
var RegistrationSuffix = ldap.MustParseDN("mds-vo-op=register")

// ToEntry renders the message as the LDAP entry carried by an add.
func (m *Message) ToEntry() *ldap.Entry {
	dn := RegistrationSuffix.ChildAVA("grrp", m.ServiceURL)
	e := ldap.NewEntry(dn).
		Add("objectclass", "mdsregistration").
		Add("grrp", m.ServiceURL).
		Add("grrptype", m.Type.String()).
		Add("issuedat", m.IssuedAt.UTC().Format(time.RFC3339Nano)).
		Add("validuntil", m.ValidUntil.UTC().Format(time.RFC3339Nano))
	if m.MDSType != "" {
		e.Add("mdstype", m.MDSType)
	}
	if m.VO != "" {
		e.Add("vo", m.VO)
	}
	if m.SuffixDN != "" {
		e.Add("suffixdn", m.SuffixDN)
	}
	if len(m.Credential) > 0 {
		e.Add("credential", string(m.Credential))
	}
	if len(m.Signature) > 0 {
		e.Add("signature", encodeB64(m.Signature))
	}
	return e
}

// LDAPTransport carries each message to a directory at a host:port
// address as one LDAP add on a fresh connection: the MDS-2.1 binding.
var LDAPTransport Transport = TransportFunc(func(to string, payload []byte) error {
	m, err := Unmarshal(payload)
	if err != nil {
		return err
	}
	c, err := ldap.Dial(to)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Add(m.ToEntry())
})

// FromEntry decodes an LDAP-carried registration; it reports ErrBadEncoding
// for adds that are not GRRP messages.
func FromEntry(e *ldap.Entry) (*Message, error) {
	if !e.IsA("mdsregistration") {
		return nil, fmt.Errorf("%w: not a registration entry", ErrBadEncoding)
	}
	m := &Message{
		ServiceURL: e.First("grrp"),
		MDSType:    e.First("mdstype"),
		VO:         e.First("vo"),
		SuffixDN:   e.First("suffixdn"),
	}
	if m.ServiceURL == "" {
		return nil, fmt.Errorf("%w: missing grrp attribute", ErrBadEncoding)
	}
	switch e.First("grrptype") {
	case "register", "":
		m.Type = TypeRegister
	case "invite":
		m.Type = TypeInvite
	default:
		return nil, fmt.Errorf("%w: bad grrptype %q", ErrBadEncoding, e.First("grrptype"))
	}
	var err error
	if m.IssuedAt, err = time.Parse(time.RFC3339Nano, e.First("issuedat")); err != nil {
		return nil, fmt.Errorf("%w: issuedat: %v", ErrBadEncoding, err)
	}
	if m.ValidUntil, err = time.Parse(time.RFC3339Nano, e.First("validuntil")); err != nil {
		return nil, fmt.Errorf("%w: validuntil: %v", ErrBadEncoding, err)
	}
	if c := e.First("credential"); c != "" {
		m.Credential = json.RawMessage(c)
	}
	if s := e.First("signature"); s != "" {
		if m.Signature, err = decodeB64(s); err != nil {
			return nil, fmt.Errorf("%w: signature: %v", ErrBadEncoding, err)
		}
	}
	return m, nil
}
