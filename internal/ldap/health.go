package ldap

import (
	"fmt"
	"net"
	"strings"
	"time"

	"mds2/internal/softstate"
)

// ProbeMode selects how deep a HealthCheck exercises the server.
type ProbeMode int

// Probe modes.
const (
	// ProbeAnonymous is the default: dial, anonymous bind, RootDSE base
	// search — proves the accept loop, bind path, and search dispatch.
	ProbeAnonymous ProbeMode = iota
	// ProbeScopedSearch follows the bind with a real data search (Base /
	// Scope / Filter) and, when MinEntries > 0, requires that many entries
	// back — proving not just liveness but that the server actually holds
	// answerable content (e.g. a GIIS with at least one registered child).
	ProbeScopedSearch
)

func (m ProbeMode) String() string {
	switch m {
	case ProbeAnonymous:
		return "anonymous"
	case ProbeScopedSearch:
		return "scoped-search"
	}
	return fmt.Sprintf("probemode(%d)", int(m))
}

// ParseProbeMode maps the flag vocabulary onto a ProbeMode.
func ParseProbeMode(s string) (ProbeMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "anonymous", "anon":
		return ProbeAnonymous, nil
	case "scoped-search", "search", "scoped":
		return ProbeScopedSearch, nil
	}
	return 0, fmt.Errorf("ldap: unknown probe mode %q (anonymous, scoped-search)", s)
}

// HealthCheck probes an LDAP server the way a client would: dial, bind,
// search. Passing means the accept loop, the bind path, and the search
// dispatch are all live — not just that the process exists. It is the probe
// cmd/gris and cmd/giis mount at /healthz; Mode selects how deep it goes.
type HealthCheck struct {
	// Addr is the server to probe; Dial overrides the transport (tests).
	Addr string
	Dial func() (net.Conn, error)
	// Timeout bounds the whole probe (default 5s).
	Timeout time.Duration
	// Clock stamps the probe; nil means wall clock.
	Clock softstate.Clock

	// Mode selects the probe depth (default ProbeAnonymous).
	Mode ProbeMode
	// Base, Scope, and Filter define the ProbeScopedSearch region; an empty
	// Filter means (objectclass=*).
	Base   string
	Scope  Scope
	Filter string
	// MinEntries, when > 0, is the least number of entries the scoped
	// search must return for the probe to pass.
	MinEntries int
}

// Probe runs the check once. The returned duration is the full
// dial+bind+search round trip, reported even on failure.
func (hc HealthCheck) Probe() (time.Duration, error) {
	clock := hc.Clock
	if clock == nil {
		clock = softstate.RealClock{}
	}
	timeout := hc.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	dial := hc.Dial
	if dial == nil {
		addr := hc.Addr
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	start := clock.Now()
	elapsed := func() time.Duration { return clock.Now().Sub(start) }

	conn, err := dial()
	if err != nil {
		return elapsed(), fmt.Errorf("dial: %w", err)
	}
	c := NewClient(conn)
	defer c.Close()
	c.Timeout = timeout
	c.Clock = clock

	if err := c.Bind("", ""); err != nil {
		return elapsed(), fmt.Errorf("anonymous bind: %w", err)
	}

	if hc.Mode == ProbeScopedSearch {
		filter := hc.Filter
		if filter == "" {
			filter = "(objectclass=*)"
		}
		f, err := ParseFilter(filter)
		if err != nil {
			return elapsed(), fmt.Errorf("probe filter: %w", err)
		}
		res, err := c.Search(&SearchRequest{
			BaseDN: hc.Base,
			Scope:  hc.Scope,
			Filter: f,
		})
		if err != nil {
			return elapsed(), fmt.Errorf("scoped search %q: %w", hc.Base, err)
		}
		if hc.MinEntries > 0 && len(res.Entries) < hc.MinEntries {
			return elapsed(), fmt.Errorf("scoped search %q: %d entries, want >= %d",
				hc.Base, len(res.Entries), hc.MinEntries)
		}
		return elapsed(), nil
	}

	if _, err := c.Search(&SearchRequest{
		BaseDN: "",
		Scope:  ScopeBaseObject,
		Filter: MustParseFilter("(objectclass=*)"),
	}); err != nil {
		return elapsed(), fmt.Errorf("rootdse search: %w", err)
	}
	return elapsed(), nil
}
