package ldap

import (
	"fmt"
	"net"
	"time"

	"mds2/internal/softstate"
)

// HealthCheck probes an LDAP server the way a client would: dial, anonymous
// bind, root DSE base search (topologymetrics' root_dse check). Passing
// means the accept loop, the bind path, and the search dispatch are all
// live — not just that the process exists. It is the probe cmd/gris and
// cmd/giis mount at /healthz. Whether a directory holds its children is
// read from its monitor (a search under cn=monitor), not from this probe.
type HealthCheck struct {
	// Addr is the server to probe.
	Addr string
	// Timeout bounds the whole probe, dial included (default 5s).
	Timeout time.Duration
}

// Probe runs the check once. The returned duration is the full
// dial+bind+search round trip, reported even on failure.
func (hc HealthCheck) Probe() (time.Duration, error) {
	timeout := hc.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	clock := softstate.RealClock{}
	start := clock.Now()
	elapsed := func() time.Duration { return clock.Now().Sub(start) }
	conn, err := net.DialTimeout("tcp", hc.Addr, timeout)
	if err != nil {
		return elapsed(), fmt.Errorf("dial: %w", err)
	}
	conn.SetDeadline(start.Add(timeout)) // the bind and the search get what the dial left
	c := NewClient(conn)
	defer c.Close()
	c.Timeout = timeout

	if err := c.Bind("", ""); err != nil {
		return elapsed(), fmt.Errorf("anonymous bind: %w", err)
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
