package shard

import (
	"strings"

	"mds2/internal/ldap"
)

// Shard summaries are Bloom filters over the namespace terms of a shard's
// registered children: every "attr=value" AVA of every child's suffix DN.
// A peer consults another shard's summary before scatter fan-out — if a
// query's required terms cannot all be present, the shard cannot hold a
// matching provider and the chained query is skipped (§5.1 lossy
// aggregation, after the Service Discovery Service).
//
// Soundness rests on a naming convention, so the testable vocabulary is
// restricted: only query terms on SummaryAttrs attributes are consulted,
// and SummaryAttrs must be attributes whose values are namespace-carried —
// any entry with attr=value lives under a provider whose suffix DN contains
// that AVA (true of "hn" host naming and "o" organization placement in the
// MDS data model). Terms outside the vocabulary fail open: the peer is
// queried anyway. False positives cost one wasted chained query; false
// negatives cannot occur for conforming attributes.

// DefaultSummaryAttrs is the namespace-carried vocabulary consulted when a
// strategy configures none.
var DefaultSummaryAttrs = []string{"hn", "o"}

// SuffixTerms enumerates the lowercase attr=value terms of a registration
// suffix DN — the vocabulary one child contributes to its shard's summary.
func SuffixTerms(suffix ldap.DN) []string {
	var out []string
	for _, rdn := range suffix {
		for _, ava := range rdn {
			out = append(out, Key(ava.Attr, ava.Value))
		}
	}
	return out
}

// QueryTerms extracts the terms every entry matching f must carry:
// top-level conjunctive equality assertions, restricted to the given
// attributes (nil admits every attribute). Terms under OR or NOT are not
// required and contribute nothing (fail open).
func QueryTerms(f *ldap.Filter, attrs []string) []string {
	var out []string
	var walk func(*ldap.Filter)
	walk = func(g *ldap.Filter) {
		switch g.Kind {
		case ldap.FilterAnd:
			for _, sub := range g.Subs {
				walk(sub)
			}
		case ldap.FilterEquality:
			if attrs == nil || containsFold(attrs, g.Attr) {
				out = append(out, Key(g.Attr, g.Value))
			}
		}
	}
	if f != nil {
		walk(f)
	}
	return out
}

func containsFold(attrs []string, attr string) bool {
	for _, a := range attrs {
		if strings.EqualFold(a, attr) {
			return true
		}
	}
	return false
}
