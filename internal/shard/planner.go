package shard

import (
	"sort"
	"strings"

	"mds2/internal/ldap"
)

// Planner decides where registrations live and where queries go. One
// planner instance is shared by a shard's registrar hooks and its search
// strategy; it is immutable after construction.
type Planner struct {
	Ring *Ring
	// Self is this node's shard ID ("" on a pure client/registrar that is
	// not itself a ring member).
	Self string
	// Replicas is K: how many distinct shards own each keyed registration.
	Replicas int
	// Suffix is the directory suffix the ring partitions; query bases are
	// interpreted relative to it.
	Suffix ldap.DN
	// KeyAttrs are the attribute types whose DN components and equality
	// assertions carry partition keys, lowercase. Defaults to ["hn"] — the
	// paper's host-naming attribute — via NewPlanner.
	KeyAttrs []string
}

// DefaultKeyAttrs is the partition-key attribute set used when none is
// configured.
var DefaultKeyAttrs = []string{"hn"}

// NewPlanner builds a planner; replicas < 1 becomes 1, empty keyAttrs
// becomes DefaultKeyAttrs.
func NewPlanner(ring *Ring, self string, replicas int, suffix ldap.DN, keyAttrs []string) *Planner {
	if replicas < 1 {
		replicas = 1
	}
	if len(keyAttrs) == 0 {
		keyAttrs = DefaultKeyAttrs
	}
	lowered := make([]string, len(keyAttrs))
	for i, a := range keyAttrs {
		lowered[i] = strings.ToLower(strings.TrimSpace(a))
	}
	return &Planner{Ring: ring, Self: self, Replicas: replicas, Suffix: suffix, KeyAttrs: lowered}
}

func (p *Planner) keyAttr(attr string) bool {
	attr = strings.ToLower(attr)
	for _, a := range p.KeyAttrs {
		if a == attr {
			return true
		}
	}
	return false
}

// Key builds the canonical attr=value term: the partition key on the
// registration and query paths, and the vocabulary of every Bloom summary
// (entry side and query side alike). It folds with ldap.FoldKey, so any
// value a filter's equality assertion matches renders the same term —
// which is what makes routing correct and summaries free of false
// negatives.
func Key(attr, value string) string {
	return ldap.FoldKey(strings.TrimSpace(attr)) + "=" + ldap.FoldKey(strings.TrimSpace(value))
}

// RegistrationKey extracts the partition key from a registration's suffix
// DN (grrp.Message.SuffixDN). The key is the leftmost single-AVA RDN whose
// attribute is a key attribute — e.g. "hn=hostX, o=grid" keys to
// "hn=hostx". keyed=false means the registration is not partitionable
// (unparsable DN, multi-valued leaf, or a non-key attribute) and must be
// broadcast to every shard to preserve query completeness.
func (p *Planner) RegistrationKey(suffixDN string) (key string, keyed bool) {
	dn, err := ldap.ParseDN(suffixDN)
	if err != nil {
		return "", false
	}
	return p.RegistrationKeyDN(dn)
}

// RegistrationKeyDN is RegistrationKey for an already parsed suffix.
func (p *Planner) RegistrationKeyDN(dn ldap.DN) (key string, keyed bool) {
	if dn.IsZero() {
		return "", false
	}
	leaf := dn.Leaf()
	if len(leaf) != 1 || !p.keyAttr(leaf[0].Attr) {
		return "", false
	}
	return Key(leaf[0].Attr, leaf[0].Value), true
}

// Owners returns the shard members that must hold the registration with the
// given suffix DN, primary first. Unkeyed registrations are owned by every
// member.
func (p *Planner) Owners(suffixDN string) []Member {
	key, keyed := p.RegistrationKey(suffixDN)
	if !keyed {
		return p.Ring.Members()
	}
	return p.Ring.Owners(key, p.Replicas)
}

// OwnsRegistration reports whether this node must hold the registration.
// A planner with no Self owns nothing; a registration that is not keyed is
// owned everywhere.
func (p *Planner) OwnsRegistration(suffixDN string) bool {
	if p.Self == "" {
		return false
	}
	key, keyed := p.RegistrationKey(suffixDN)
	if !keyed {
		return true
	}
	return p.Ring.Owns(p.Self, key, p.Replicas)
}

// Plan is a routing decision for one search.
type Plan struct {
	// Routable is true when the query provably touches only the listed
	// keys' owners (plus broadcast registrations, which every shard holds).
	Routable bool
	// Keys are the partition keys the query names (routable plans only),
	// sorted.
	Keys []string
	// Remote are the distinct shards, other than Self, that must be
	// queried. For routable plans these are owners of keys Self does not
	// own; for scatter plans, every other ring member. Failover order is
	// preserved per key on routable plans.
	Remote []Member
	// remoteByKey, for routable plans, preserves per-key owner failover
	// order; exposed through OwnersFor.
	remoteByKey map[string][]Member
}

// OwnersFor returns the failover-ordered owners for one routable key (Self
// excluded). Nil for keys not in the plan.
func (pl *Plan) OwnersFor(key string) []Member { return pl.remoteByKey[key] }

// Plan routes a search. Key extraction prefers the base DN: a base at or
// below provider level ("hn=hostX, o=grid") pins the key set directly.
// Otherwise the filter is consulted: an equality assertion on a key
// attribute routes; an AND routes if any conjunct routes (answering a
// superset of conjuncts is sound because every result still passes the full
// filter at the shard); an OR routes only if every branch routes (the union
// of branch keys); NOT and every non-equality assertion are unroutable.
// Unroutable searches scatter to the whole ring; completeness still holds
// because the scatter set is every member.
func (p *Planner) Plan(base ldap.DN, filter *ldap.Filter) Plan {
	keys, routable := p.baseKeys(base)
	if !routable {
		keys, routable = p.filterKeys(filter)
	}
	if !routable {
		return Plan{Remote: p.others(p.Ring.Members())}
	}
	sort.Strings(keys)
	keys = dedupStrings(keys)
	pl := Plan{Routable: true, Keys: keys, remoteByKey: map[string][]Member{}}
	seen := map[string]bool{}
	for _, k := range keys {
		owners := p.Ring.Owners(k, p.Replicas)
		if p.Self != "" {
			// Self already holds this key's registrations locally; no
			// remote hop needed for it.
			if memberIn(owners, p.Self) {
				continue
			}
		}
		remote := p.others(owners)
		pl.remoteByKey[k] = remote
		for _, m := range remote {
			if !seen[m.ID] {
				seen[m.ID] = true
				pl.Remote = append(pl.Remote, m)
			}
		}
	}
	return pl
}

// baseKeys derives keys from the search base: if the base names components
// below the partitioned suffix and any of those components is a single-AVA
// key attribute, the query can only match entries under that component.
func (p *Planner) baseKeys(base ldap.DN) ([]string, bool) {
	rel, ok := base.RelativeTo(p.Suffix)
	if !ok || rel.IsZero() {
		return nil, false
	}
	for _, rdn := range rel {
		if len(rdn) == 1 && p.keyAttr(rdn[0].Attr) {
			return []string{Key(rdn[0].Attr, rdn[0].Value)}, true
		}
	}
	return nil, false
}

// filterKeys derives keys from the filter per the routing rules above.
func (p *Planner) filterKeys(f *ldap.Filter) ([]string, bool) {
	if f == nil {
		return nil, false
	}
	switch f.Kind {
	case ldap.FilterEquality:
		if p.keyAttr(f.Attr) {
			return []string{Key(f.Attr, f.Value)}, true
		}
		return nil, false
	case ldap.FilterAnd:
		// The first routable conjunct wins: querying a superset of shards
		// relative to the full conjunction is sound, and one key set keeps
		// fan-out minimal in the common (hn=X)(objectclass=...) shape.
		for _, sub := range f.Subs {
			if keys, ok := p.filterKeys(sub); ok {
				return keys, true
			}
		}
		return nil, false
	case ldap.FilterOr:
		var all []string
		for _, sub := range f.Subs {
			keys, ok := p.filterKeys(sub)
			if !ok {
				return nil, false
			}
			all = append(all, keys...)
		}
		return all, len(f.Subs) > 0
	default:
		return nil, false
	}
}

// others filters Self out of a member list, preserving order.
func (p *Planner) others(ms []Member) []Member {
	out := make([]Member, 0, len(ms))
	for _, m := range ms {
		if m.ID != p.Self {
			out = append(out, m)
		}
	}
	return out
}

func memberIn(ms []Member, id string) bool {
	for _, m := range ms {
		if m.ID == id {
			return true
		}
	}
	return false
}

func dedupStrings(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
