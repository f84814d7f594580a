package grip

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"mds2/internal/gris"
	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/softstate"
)

// storeHandler serves a Store's entries: a search is AppendCompiled into a
// stack array, then SendProjected, and an add puts its entry. Everything
// else is BaseHandler's, which refuses SASL binds and extended operations.
type storeHandler struct {
	ldap.BaseHandler
	store *ldap.Store
}

func (h storeHandler) Search(_ *ldap.Request, op *ldap.SearchRequest, w ldap.SearchWriter) ldap.Result {
	base, err := op.Base()
	if err != nil {
		return ldap.Result{Code: ldap.ResultProtocolError, Message: err.Error()}
	}
	var found [8]*ldap.Entry
	entries, truncated := h.store.AppendCompiled(found[:0], base, op.Scope, op.Plan(), op.SizeLimit)
	for _, e := range entries {
		if err := ldap.SendProjected(w, e, op.Attributes); err != nil {
			return ldap.Result{Code: ldap.ResultUnavailable, Message: err.Error()}
		}
	}
	if truncated {
		return ldap.Result{Code: ldap.ResultSizeLimitExceeded}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h storeHandler) Add(_ *ldap.Request, op *ldap.AddRequest) ldap.Result {
	if err := h.store.Put(op.Entry); err != nil {
		return ldap.Result{Code: ldap.ResultUnwillingToPerform, Message: err.Error()}
	}
	return ldap.Result{Code: ldap.ResultSuccess}
}

// startStore serves an ldap.Store over loopback TCP.
func startStore(t *testing.T) (*Client, *ldap.Store) {
	t.Helper()
	store := ldap.NewStore()
	return serve(t, storeHandler{store: store}), store
}

// serve serves h over loopback TCP and returns a connected client.
func serve(t *testing.T, h ldap.Handler) *Client {
	t.Helper()
	srv := ldap.NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func seedEntries(t *testing.T, store *ldap.Store) {
	t.Helper()
	entries := []*ldap.Entry{
		ldap.NewEntry(ldap.MustParseDN("hn=a, o=g")).
			Add("objectclass", "computer").Add("hn", "a").Add("cpucount", "8"),
		ldap.NewEntry(ldap.MustParseDN("hn=b, o=g")).
			Add("objectclass", "computer").Add("hn", "b").Add("cpucount", "64"),
		ldap.NewEntry(ldap.MustParseDN("perf=l, hn=a, o=g")).
			Add("objectclass", "loadaverage").Add("perf", "l").Add("load5", "0.5"),
	}
	for _, e := range entries {
		if err := store.Put(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLookup(t *testing.T) {
	c, store := startStore(t)
	seedEntries(t, store)
	e, err := c.Lookup(ldap.MustParseDN("hn=b, o=g"))
	if err != nil {
		t.Fatal(err)
	}
	if e.First("cpucount") != "64" {
		t.Fatalf("entry = %s", e)
	}
	// Attribute selection.
	e, err = c.Lookup(ldap.MustParseDN("hn=b, o=g"), "hn")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Attributes()) != 1 {
		t.Fatalf("selected = %v", e.Attributes())
	}
	// Missing entries are noSuchObject.
	if _, err := c.Lookup(ldap.MustParseDN("hn=ghost, o=g")); !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		t.Fatalf("missing lookup: %v", err)
	}
}

func TestSearchAndLimits(t *testing.T) {
	c, store := startStore(t)
	seedEntries(t, store)
	got, err := c.Search(ldap.MustParseDN("o=g"), "(objectclass=computer)")
	if err != nil || len(got) != 2 {
		t.Fatalf("search: %v, %d", err, len(got))
	}
	// Bad filters fail client-side.
	if _, err := c.Search(ldap.MustParseDN("o=g"), "((broken"); err == nil {
		t.Fatal("bad filter should fail")
	}
	limited, err := c.SearchLimited(ldap.MustParseDN("o=g"), "(objectclass=*)", 1)
	if err != nil || len(limited) != 1 {
		t.Fatalf("limited: %v, %d", err, len(limited))
	}
}

// hostBackend is a GRIS provider whose entries the test swaps.
type hostBackend struct {
	mu      sync.Mutex
	entries []*ldap.Entry
}

func (b *hostBackend) Name() string            { return "host" }
func (b *hostBackend) Suffix() ldap.DN         { return ldap.MustParseDN("o=g") }
func (b *hostBackend) Attributes() []string    { return nil }
func (b *hostBackend) CacheTTL() time.Duration { return 0 }

func (b *hostBackend) Entries(*gris.Query) ([]*ldap.Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.entries, nil
}

func (b *hostBackend) set(entries ...*ldap.Entry) {
	b.mu.Lock()
	b.entries = entries
	b.mu.Unlock()
}

// TestSubscribe runs a GRIP subscription against a GRIS, whose poll loop
// pushes what changed between two of its rounds.
func TestSubscribe(t *testing.T) {
	clock := softstate.NewFakeClock()
	seed := []*ldap.Entry{
		ldap.NewEntry(ldap.MustParseDN("hn=a, o=g")).
			Add("objectclass", "computer").Add("hn", "a").Add("cpucount", "8"),
		ldap.NewEntry(ldap.MustParseDN("hn=b, o=g")).
			Add("objectclass", "computer").Add("hn", "b").Add("cpucount", "64"),
	}
	host := &hostBackend{}
	host.set(seed...)
	srv := gris.New(gris.Config{Suffix: ldap.MustParseDN("o=g"), Clock: clock, PollInterval: time.Second})
	srv.Register(host)
	c := serve(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan Update, 16)
	go func() {
		c.Subscribe(ctx, ldap.MustParseDN("o=g"), "(objectclass=computer)", true,
			func(u Update) error {
				got <- u
				return nil
			})
	}()
	// armed waits until the poll loop waits on its timer, its round done.
	armed := func() {
		t.Helper()
		for start := time.Now(); clock.Pending() == 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatal("the subscription's poll loop never armed its timer")
			}
		}
	}
	armed()
	fresh := ldap.NewEntry(ldap.MustParseDN("hn=c, o=g")).
		Add("objectclass", "computer").Add("hn", "c")
	host.set(append(seed, fresh)...)
	clock.Advance(time.Second)
	// The baseline, had it been sent, would have come first.
	select {
	case u := <-got:
		if !u.Entry.DN.Equal(fresh.DN) || u.ChangeType != ldap.ChangeAdd {
			t.Fatalf("update = %+v", u)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription update")
	}
	// changesOnly suppressed the baseline: nothing else was sent. A search
	// on the same connection is answered after whatever the subscription
	// sent before it, and updates are handed over on the read loop.
	armed()
	if _, err := c.Search(ldap.MustParseDN("o=g"), "(hn=c)"); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-got:
		t.Fatalf("unexpected update %+v", u)
	default:
	}
}

// busyHandler refuses every search, as a server shedding load does.
type busyHandler struct{ ldap.BaseHandler }

func (busyHandler) Search(*ldap.Request, *ldap.SearchRequest, ldap.SearchWriter) ldap.Result {
	return ldap.Result{Code: ldap.ResultBusy, Message: "server overloaded"}
}

// TestSubscribeReportsRefusal: a subscription the server refuses ends with
// the refusal, not as if it had ended cleanly.
func TestSubscribeReportsRefusal(t *testing.T) {
	c := serve(t, busyHandler{})
	err := c.Subscribe(context.Background(), ldap.MustParseDN("o=g"), "(objectclass=*)", false,
		func(u Update) error {
			t.Errorf("update from a refused subscription: %+v", u)
			return nil
		})
	if !ldap.IsCode(err, ldap.ResultBusy) {
		t.Fatalf("refused subscription returned %v, want busy", err)
	}
}

func TestRegisterViaAdd(t *testing.T) {
	c, store := startStore(t)
	e := ldap.NewEntry(ldap.MustParseDN("grrp=x, mds-vo-op=register")).
		Add("objectclass", "mdsregistration").Add("grrp", "ldap://x")
	if err := c.Register(e); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatal("registration entry not stored")
	}
}

func TestAuthenticateAgainstGRIS(t *testing.T) {
	// The SASL flow requires a GSI-aware handler; BaseHandler refuses it.
	c, _ := startStore(t)
	ca, _ := gsi.NewAuthority("o=ca")
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	keys, _ := ca.Issue("cn=user", time.Hour, time.Now())
	if _, err := c.Authenticate(keys, trust); err == nil {
		t.Fatal("store should refuse SASL binds")
	}
}

func TestRawSharesTheConnection(t *testing.T) {
	c, store := startStore(t)
	seedEntries(t, store)
	res, err := c.Raw().Search(&ldap.SearchRequest{BaseDN: "hn=b, o=g", Scope: ldap.ScopeBaseObject})
	if err != nil || len(res.Entries) != 1 {
		t.Fatalf("raw search: %v, %v", err, res)
	}
}

func TestExtendedUnsupported(t *testing.T) {
	c, _ := startStore(t)
	if _, err := c.Extended("1.2.3", nil); err == nil {
		t.Fatal("store refuses extended ops")
	}
}
