package grip_test

import (
	"net"
	"testing"
	"time"

	"mds2/internal/giis"
	"mds2/internal/grip"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/providers"
	"mds2/internal/softstate"
)

// testSecurity bundles one CA + trust store for a test.
func testSecurity(t *testing.T) (*gsi.Authority, *gsi.TrustStore) {
	t.Helper()
	ca, err := gsi.NewAuthority("o=test ca")
	if err != nil {
		t.Fatal(err)
	}
	ts := gsi.NewTrustStore()
	ts.TrustAuthority(ca)
	return ca, ts
}

// startGRIS serves a GSI-enabled GRIS over loopback TCP.
func startGRIS(t *testing.T, ca *gsi.Authority, trust *gsi.TrustStore) (string, ldap.DN) {
	t.Helper()
	suffix := ldap.MustParseDN("hn=h, o=g")
	host := hostinfo.New("h", hostinfo.Spec{OS: "linux", OSVer: "1",
		CPUType: "ia32", CPUCount: 4, MemoryMB: 1024}, 3)
	serverKeys, err := ca.Issue("cn=gris.h", time.Hour, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	gs := gris.New(gris.Config{Suffix: suffix, Keys: serverKeys, Trust: trust})
	for _, b := range providers.HostBackends(host, suffix) {
		gs.Register(b)
	}
	srv := ldap.NewServer(gs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), suffix
}

func TestAuthenticateMutual(t *testing.T) {
	ca, trust := testSecurity(t)
	addr, suffix := startGRIS(t, ca, trust)
	c, err := grip.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	userKeys, _ := ca.Issue("cn=user", time.Hour, time.Now())
	serverCred, err := c.Authenticate(userKeys, trust)
	if err != nil {
		t.Fatal(err)
	}
	if serverCred.EndEntity() != "cn=gris.h" {
		t.Fatalf("server identity = %q", serverCred.EndEntity())
	}
	if _, err := c.Search(suffix, "(objectclass=computer)"); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticateUntrustedFails(t *testing.T) {
	ca, trust := testSecurity(t)
	addr, _ := startGRIS(t, ca, trust)
	rogue, _ := gsi.NewAuthority("o=rogue")
	rogueKeys, _ := rogue.Issue("cn=mallory", time.Hour, time.Now())
	rogueTrust := gsi.NewTrustStore()
	rogueTrust.TrustAuthority(rogue)
	rogueTrust.TrustAuthority(ca) // client accepts server; server must refuse client
	c, err := grip.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Authenticate(rogueKeys, rogueTrust); err == nil {
		t.Fatal("untrusted credential accepted")
	}
}

// TestSearchFollowingReferrals exercises the referral-follow path entirely
// in-package: a referral GIIS refers to a GRIS; the client follows.
func TestSearchFollowingReferrals(t *testing.T) {
	ca, trust := testSecurity(t)
	grisAddr, suffix := startGRIS(t, ca, trust)

	referral, err := giis.NewStrategy("referral", giis.StrategyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := giis.New(giis.Config{
		Name: "dir", Suffix: ldap.MustParseDN("vo=v"),
		SelfURL:  ldap.MustParseURL("ldap://127.0.0.1:0"),
		Strategy: referral,
	})
	t.Cleanup(dir.Close)
	now := time.Now()
	if !dir.Ingest(testRegistration(grisAddr, suffix, now)) {
		t.Fatal("registration refused")
	}
	srv := ldap.NewServer(dir)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := grip.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.SearchFollowingReferrals(ldap.MustParseDN("vo=v"), ldap.ScopeWholeSubtree, "(objectclass=computer)",
		func(url ldap.URL) (*grip.Client, error) { return grip.Dial(url.Address()) }, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("hn") != "h" {
		t.Fatalf("followed entries = %v", entries)
	}
	// With an unreachable provider the follow degrades to partial results.
	dir.Ingest(testRegistration("127.0.0.1:1", ldap.MustParseDN("hn=dead, o=g"), now))
	entries, err = c.SearchFollowingReferrals(ldap.MustParseDN("vo=v"), ldap.ScopeWholeSubtree, "(objectclass=computer)",
		func(url ldap.URL) (*grip.Client, error) { return grip.Dial(url.Address()) }, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("partial follow = %d entries", len(entries))
	}
}

func testRegistration(addr string, suffix ldap.DN, now time.Time) *grrp.Message {
	return &grrp.Message{
		Type:       grrp.TypeRegister,
		ServiceURL: "ldap://" + addr,
		MDSType:    "gris",
		SuffixDN:   suffix.String(),
		IssuedAt:   now,
		ValidUntil: now.Add(time.Hour),
	}
}

// TestAuthenticateExpiryFakeClock drives GSI credential expiry through the
// full GRIP/LDAP stack on a FakeClock. Before PR 2, AuthenticateLDAP
// hard-wired time.Now, so the handshake's expiry checks silently ignored
// injected clocks and this scenario was untestable.
func TestAuthenticateExpiryFakeClock(t *testing.T) {
	clock := softstate.NewFakeClock()
	ca, trust := testSecurity(t)
	suffix := ldap.MustParseDN("hn=h, o=g")
	serverKeys, err := ca.Issue("cn=gris.h", time.Hour, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	gs := gris.New(gris.Config{Suffix: suffix, Keys: serverKeys, Trust: trust, Clock: clock})
	srv := ldap.NewServer(gs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	userKeys, err := ca.Issue("cn=user", time.Hour, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *grip.Client {
		t.Helper()
		c, err := grip.Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetClock(clock)
		return c
	}

	c := dial()
	if _, err := c.Authenticate(userKeys, trust); err != nil {
		t.Fatalf("fresh credential rejected: %v", err)
	}
	c.Close()

	// Both credentials lapse one fake hour in; nothing about this test
	// depends on the wall clock.
	clock.Advance(2 * time.Hour)
	c = dial()
	defer c.Close()
	if _, err := c.Authenticate(userKeys, trust); err == nil {
		t.Fatal("expired credential accepted after FakeClock advance")
	}
}
