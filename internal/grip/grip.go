// Package grip provides the client side of the Grid Information Protocol
// (§4.1): enquiry (direct lookup), discovery (filtered search), and
// subscription (persistent search) against any information provider — GRIS,
// GIIS, or the MDS-1-style baseline — plus GSI mutual authentication. It is
// a thin, intention-revealing facade over the LDAP client, since GRIP *is*
// LDAP ("we adopt LDAP as a data model, query language, and protocol").
package grip

import (
	"context"
	"fmt"
	"net"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// Client is a GRIP connection to one information provider or directory.
type Client struct {
	c *ldap.Client
	// now is the injected time source for credential-expiry checks during
	// GSI authentication; nil means the wall clock (softstate.RealClock).
	now func() time.Time
}

// Dial connects over TCP.
func Dial(addr string) (*Client, error) {
	c, err := ldap.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// NewClient wraps an established connection (e.g. from a simulated
// network).
func NewClient(conn net.Conn) *Client { return &Client{c: ldap.NewClient(conn)} }

// Close releases the connection.
func (g *Client) Close() error { return g.c.Close() }

// SetClock injects the time source used for GSI credential-expiry checks
// and operation timeouts, so FakeClock tests drive the same code paths
// production runs (DESIGN.md "Static analysis & invariants").
func (g *Client) SetClock(clock softstate.Clock) {
	g.now = clock.Now
	g.c.Clock = clock
}

// Raw exposes the underlying LDAP client for protocol-level operations.
func (g *Client) Raw() *ldap.Client { return g.c }

// Authenticate performs GSI mutual authentication (SASL bind): both sides
// prove possession of trusted credentials. On success the server knows the
// caller's identity for access control, and the verified server credential
// is returned so callers can check who they are talking to.
func (g *Client) Authenticate(keys *gsi.KeyPair, trust *gsi.TrustStore) (*gsi.Credential, error) {
	return AuthenticateLDAP(g.c, keys, trust, g.now)
}

// AuthenticateLDAP runs the GSI SASL exchange over an existing LDAP client
// connection; aggregate directories use it to bind to child providers with
// their trusted server credential (§10.4: "the GIIS can also bind using a
// trusted server credential"). The injected now func drives the
// credential-expiry checks; nil means the wall clock.
func AuthenticateLDAP(c *ldap.Client, keys *gsi.KeyPair, trust *gsi.TrustStore, now func() time.Time) (*gsi.Credential, error) {
	hs := gsi.NewClientHandshake(keys, trust, now)
	hello, err := hs.Hello()
	if err != nil {
		return nil, err
	}
	resp, err := c.BindSASL("", gsi.SASLMechanism, hello)
	if err != nil {
		return nil, err
	}
	if resp.Code != ldap.ResultSaslBindInProgress {
		return nil, fmt.Errorf("grip: unexpected bind result %s: %s", resp.Code, resp.Message)
	}
	proof, err := hs.Respond(resp.ServerCreds)
	if err != nil {
		return nil, err
	}
	resp, err = c.BindSASL("", gsi.SASLMechanism, proof)
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return hs.Server(), nil
}

// Lookup is GRIP enquiry: fetch one entry by name ("the enquiry supplies
// the resource name and the provider returns the resource description").
func (g *Client) Lookup(dn ldap.DN, attrs ...string) (*ldap.Entry, error) {
	res, err := g.c.Search(&ldap.SearchRequest{
		BaseDN:     dn.String(),
		Scope:      ldap.ScopeBaseObject,
		Attributes: attrs,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Entries) == 0 {
		return nil, &ldap.ResultError{Result: ldap.Result{Code: ldap.ResultNoSuchObject, MatchedDN: dn.String()}}
	}
	return res.Entries[0], nil
}

// Search is GRIP discovery: filtered subtree search under base.
func (g *Client) Search(base ldap.DN, filter string, attrs ...string) ([]*ldap.Entry, error) {
	f, err := ldap.ParseFilter(filter)
	if err != nil {
		return nil, err
	}
	res, err := g.c.Search(&ldap.SearchRequest{
		BaseDN:     base.String(),
		Scope:      ldap.ScopeWholeSubtree,
		Filter:     f,
		Attributes: attrs,
	})
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}

// SearchLimited is Search with a server-side size limit; it returns
// whatever arrived when the limit was hit.
func (g *Client) SearchLimited(base ldap.DN, filter string, limit int64) ([]*ldap.Entry, error) {
	f, err := ldap.ParseFilter(filter)
	if err != nil {
		return nil, err
	}
	res, err := g.c.Search(&ldap.SearchRequest{
		BaseDN:    base.String(),
		Scope:     ldap.ScopeWholeSubtree,
		Filter:    f,
		SizeLimit: limit,
	})
	if err != nil && !ldap.IsCode(err, ldap.ResultSizeLimitExceeded) {
		return nil, err
	}
	return res.Entries, nil
}

// SearchReferrals runs a discovery and also returns any continuation
// references (a referral-mode GIIS answers this way).
func (g *Client) SearchReferrals(base ldap.DN, filter string) ([]*ldap.Entry, []string, error) {
	return g.searchReferrals(base, ldap.ScopeWholeSubtree, filter)
}

func (g *Client) searchReferrals(base ldap.DN, scope ldap.Scope, filter string) ([]*ldap.Entry, []string, error) {
	f, err := ldap.ParseFilter(filter)
	if err != nil {
		return nil, nil, err
	}
	res, err := g.c.Search(&ldap.SearchRequest{
		BaseDN: base.String(),
		Scope:  scope,
		Filter: f,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Entries, res.Referrals, nil
}

// Update is one subscription notification.
type Update struct {
	Entry *ldap.Entry
	// ChangeType is an ldap.Change* value when the server attached an
	// entry-change control, else 0.
	ChangeType int64
}

// Subscribe is GRIP subscription (§6 push mode): asynchronous delivery of
// matching entries as they change, until ctx is cancelled. The onUpdate
// callback runs on the client's read loop, so it must not wait for a reply
// on this client; returning an error cancels. A subscription the server
// refuses (busy, noSuchObject) returns the refusal.
func (g *Client) Subscribe(ctx context.Context, base ldap.DN, filter string,
	changesOnly bool, onUpdate func(Update) error) error {

	f, err := ldap.ParseFilter(filter)
	if err != nil {
		return err
	}
	controls := []ldap.Control{ldap.NewPersistentSearchControl(ldap.PersistentSearch{
		ChangeTypes: ldap.ChangeAll,
		ChangesOnly: changesOnly,
		ReturnECs:   true,
	})}
	err = g.c.SearchFunc(ctx, &ldap.SearchRequest{
		BaseDN: base.String(),
		Scope:  ldap.ScopeWholeSubtree,
		Filter: f,
	}, controls, func(e *ldap.Entry, cs []ldap.Control) error {
		up := Update{Entry: e}
		if c, ok := ldap.FindControl(cs, ldap.OIDEntryChangeNotification); ok {
			if t, err := ldap.ParseEntryChange(c); err == nil {
				up.ChangeType = t
			}
		}
		return onUpdate(up)
	})
	if err == context.Canceled {
		return nil
	}
	return err
}

// DefaultReferralHops bounds SearchFollowingReferrals when maxHops <= 0.
const DefaultReferralHops = 32

// SearchFollowingReferrals runs a discovery over the region (base, scope)
// at a directory and, when the directory answers with continuation
// references instead of data (a referral-mode GIIS protecting restricted
// data, §10.4), follows each referral to the authoritative provider using
// dial. A referral is searched with its own scope when it names one (RFC
// 4511 §4.5.3: a one-level search continues as a base search at a child's
// suffix) and with scope otherwise. Re-authentication happens there, at
// the source, exactly as the paper's two-step flow requires; authenticate may be nil for anonymous follow-up. A referral
// target may itself answer with further referrals (a coordinator shard
// referring to owner shards, an owner referring on), so the client walks
// the referral graph breadth-first. Each distinct (service, DN) target is
// visited at most once — a referral loop between shards terminates instead
// of hanging — and result entries are deduplicated by DN, because K-way
// replication means two shards can both authoritatively return the same
// provider's entries. maxHops bounds the total number of referral targets
// followed (DefaultReferralHops when <= 0). Unreachable or failing targets
// are skipped: partial results over no results (§2.2).
func (g *Client) SearchFollowingReferrals(base ldap.DN, scope ldap.Scope, filter string,
	dial func(url ldap.URL) (*Client, error),
	authenticate func(*Client) error, maxHops int) ([]*ldap.Entry, error) {

	if maxHops <= 0 {
		maxHops = DefaultReferralHops
	}
	entries, referrals, err := g.searchReferrals(base, scope, filter)
	if err != nil {
		return nil, err
	}

	seenDN := make(map[string]bool, len(entries))
	var out []*ldap.Entry
	keep := func(es []*ldap.Entry) {
		for _, e := range es {
			k := e.DN.Normalize()
			if seenDN[k] {
				continue
			}
			seenDN[k] = true
			out = append(out, e)
		}
	}
	keep(entries)

	visited := map[string]bool{}
	var queue []ldap.URL
	enqueue := func(refs []string) {
		for _, ref := range refs {
			url, err := ldap.ParseURL(ref)
			if err != nil {
				continue // malformed referral: skip, keep what we have
			}
			if url.DN.IsZero() {
				url = url.WithDN(base)
			}
			k := url.ServiceKey() + "|" + url.DN.Normalize() + "|" + url.Scope(scope).String()
			if visited[k] {
				continue
			}
			visited[k] = true
			queue = append(queue, url)
		}
	}
	enqueue(referrals)

	for hops := 0; len(queue) > 0 && hops < maxHops; hops++ {
		url := queue[0]
		queue = queue[1:]
		next, err := dial(url)
		if err != nil {
			continue // unreachable target: partial results (§2.2)
		}
		if authenticate != nil {
			if err := authenticate(next); err != nil {
				next.Close()
				continue
			}
		}
		got, refs, err := next.searchReferrals(url.DN, url.Scope(scope), filter)
		next.Close()
		if err != nil {
			continue
		}
		keep(got)
		enqueue(refs)
	}
	ldap.SortEntries(out)
	return out, nil
}

// Register pushes a GRRP registration carried as an LDAP add (the MDS-2.1
// transport, §10.1). Most callers instead sustain streams with
// grrp.Registrar; this is the one-shot building block.
func (g *Client) Register(entry *ldap.Entry) error { return g.c.Add(entry) }

// Extended invokes a GRIP protocol extension by OID (§6: "resources may
// offer additional information delivery capabilities beyond those provided
// by GRIP").
func (g *Client) Extended(oid string, value []byte) ([]byte, error) {
	resp, err := g.c.Extended(oid, value)
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}
