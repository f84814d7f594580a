package gsi

import (
	"strings"

	"mds2/internal/ldap"
)

// Posture enumerates the four provider/directory trust configurations
// enumerated in §7 of the paper.
type Posture int

// Postures, in the order the paper lists them.
const (
	// PostureTrustedDirectory: the provider answers any authenticated query
	// from the directory, trusting it to apply policy on the provider's
	// behalf.
	PostureTrustedDirectory Posture = iota
	// PostureRestricted: some attributes flow to the directory, others only
	// to specifically authorized users (forcing two-step query plans).
	PostureRestricted
	// PostureExistenceOnly: nothing beyond the entity's existence is
	// revealed; directories can enumerate but not index attributes.
	PostureExistenceOnly
	// PostureOpen: no restrictions; anonymous queries permitted.
	PostureOpen
)

func (p Posture) String() string {
	switch p {
	case PostureTrustedDirectory:
		return "trusted-directory"
	case PostureRestricted:
		return "restricted"
	case PostureExistenceOnly:
		return "existence-only"
	case PostureOpen:
		return "open"
	}
	return "unknown"
}

// Principal is the access-control view of an authenticated peer. A nil
// *Principal means anonymous.
type Principal struct {
	// Subject is the verified end-entity name.
	Subject string
	// Capabilities aggregates capabilities asserted along the chain.
	Capabilities []string
	// TrustedDirectory marks peers authorized to act as aggregate
	// directories applying policy on the provider's behalf.
	TrustedDirectory bool
}

// PrincipalFromCredential projects a verified credential chain into the
// policy domain. trusted lists directory subjects the provider trusts.
func PrincipalFromCredential(c *Credential, trustedDirectories []string) *Principal {
	p := &Principal{Subject: c.EndEntity()}
	for cur := c; cur != nil; cur = cur.Chain {
		p.Capabilities = append(p.Capabilities, cur.Capabilities...)
	}
	for _, d := range trustedDirectories {
		if d == p.Subject {
			p.TrustedDirectory = true
		}
	}
	return p
}

// HasCapability reports whether the principal holds the named capability.
func (p *Principal) HasCapability(cap string) bool {
	if p == nil {
		return false
	}
	for _, c := range p.Capabilities {
		if c == cap {
			return true
		}
	}
	return false
}

// Rule grants access to a set of attributes when its subject condition
// matches. Subject forms:
//
//	"*"            any authenticated principal
//	"anonymous"    unauthenticated peers (and, implicitly, everyone else)
//	"cap:NAME"     principals holding capability NAME
//	anything else  exact end-entity subject match
//
// Attrs lists attribute names the rule reveals; "*" reveals all.
type Rule struct {
	Subject string
	Attrs   []string
}

func (r Rule) matches(p *Principal) bool {
	switch {
	case r.Subject == "anonymous":
		return true
	case p == nil:
		return false
	case r.Subject == "*":
		return true
	case strings.HasPrefix(r.Subject, "cap:"):
		return p.HasCapability(strings.TrimPrefix(r.Subject, "cap:"))
	default:
		return p.Subject == r.Subject
	}
}

// Policy decides which attributes of which entries a principal may see.
// The zero value denies everything; use NewPolicy.
type Policy struct {
	// Posture selects the §7 baseline behaviour.
	Posture Posture
	// Rules refine PostureRestricted: each grants attribute visibility.
	Rules []Rule
	// ExistenceAttrs are the attributes revealed under PostureExistenceOnly
	// (the naming attributes; defaults to objectclass only).
	ExistenceAttrs []string
}

// NewPolicy returns a policy with the given posture.
func NewPolicy(p Posture) *Policy {
	return &Policy{Posture: p, ExistenceAttrs: []string{"objectclass"}}
}

// Grant appends a rule.
func (pol *Policy) Grant(subject string, attrs ...string) *Policy {
	pol.Rules = append(pol.Rules, Rule{Subject: subject, Attrs: attrs})
	return pol
}

// VisibleAttrs computes the attribute names of e visible to p, or nil when
// the entry is entirely hidden. The boolean reports whether the entry's
// existence may be revealed at all.
func (pol *Policy) VisibleAttrs(p *Principal, e *ldap.Entry) ([]string, bool) {
	switch pol.Posture {
	case PostureOpen:
		return []string{"*"}, true
	case PostureTrustedDirectory:
		if p != nil && p.TrustedDirectory {
			return []string{"*"}, true
		}
		return pol.ruleAttrs(p)
	case PostureExistenceOnly:
		return pol.ExistenceAttrs, true
	case PostureRestricted:
		return pol.ruleAttrs(p)
	}
	return nil, false
}

func (pol *Policy) ruleAttrs(p *Principal) ([]string, bool) {
	var attrs []string
	seen := map[string]bool{}
	any := false
	for _, r := range pol.Rules {
		if !r.matches(p) {
			continue
		}
		any = true
		for _, a := range r.Attrs {
			if a == "*" {
				return []string{"*"}, true
			}
			key := strings.ToLower(a)
			if !seen[key] {
				seen[key] = true
				attrs = append(attrs, a)
			}
		}
	}
	return attrs, any
}

// Redact returns the view of e that p may see: the full entry, a reduced
// entry, or nil when even existence is hidden. The DN is always preserved
// on visible entries (it is the name).
func (pol *Policy) Redact(p *Principal, e *ldap.Entry) *ldap.Entry {
	attrs, visible := pol.VisibleAttrs(p, e)
	if !visible {
		return nil
	}
	if len(attrs) == 1 && attrs[0] == "*" {
		return e.Clone()
	}
	if len(attrs) == 0 {
		return nil
	}
	out := e.Select(attrs)
	if len(out.Attributes()) == 0 {
		// Nothing the principal may see actually exists on this entry;
		// under restricted posture that hides the entry entirely.
		if pol.Posture == PostureRestricted {
			return nil
		}
	}
	return out
}

// FilterAuthorized reports whether p may evaluate the given search filter:
// a principal must be able to see every attribute the filter references,
// otherwise filter evaluation would leak restricted values through
// match/no-match behaviour.
func (pol *Policy) FilterAuthorized(p *Principal, f *ldap.Filter, sample *ldap.Entry) bool {
	if f == nil {
		return true
	}
	attrs, visible := pol.VisibleAttrs(p, sample)
	if !visible {
		return false
	}
	if len(attrs) == 1 && attrs[0] == "*" {
		return true
	}
	allowed := map[string]bool{"objectclass": true}
	for _, a := range attrs {
		allowed[strings.ToLower(a)] = true
	}
	for _, a := range f.Attributes() {
		if !allowed[a] {
			return false
		}
	}
	return true
}
