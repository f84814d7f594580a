package core

import (
	"testing"
	"time"

	"mds2/internal/giis"
	"mds2/internal/grip"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/ldap"
)

func referralStrategy() *giis.Strategy {
	st, err := giis.NewStrategy("referral", giis.StrategyConfig{})
	if err != nil {
		panic(err)
	}
	return st
}

// TestTrustedDirectoryChaining exercises the first §7 posture end to end:
// the provider trusts the directory, so an authenticated chaining directory
// retrieves everything, while an anonymous client asking the provider
// directly sees only the public subset.
func TestTrustedDirectoryChaining(t *testing.T) {
	g, err := NewSimGrid(70)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// The directory authenticates to children with its own credential.
	dir, err := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v", AuthChildren: true})
	if err != nil {
		t.Fatal(err)
	}
	// Provider policy: trusted directories see all; everyone else sees the
	// public attributes only.
	pol := gsi.NewPolicy(gsi.PostureTrustedDirectory).
		Grant("anonymous", "objectclass", "hn", "system")
	host, err := g.AddHost("h1", HostOptions{
		Policy:             pol,
		TrustedDirectories: []string{"cn=giis.dir"},
	})
	if err != nil {
		t.Fatal(err)
	}
	host.RegisterWith(dir, "v", 10*time.Second, time.Hour)
	waitUntil(t, "registration", func() bool { return len(dir.GIIS.Children()) == 1 })

	// Anonymous user via the directory: the directory's authenticated chain
	// retrieves the full entry, which it serves on the provider's behalf
	// ("the provider ... trusts the directory to apply its policy").
	user, err := dir.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	viaDir, err := user.Search(ldap.MustParseDN("vo=v"), "(objectclass=loadaverage)")
	if err != nil {
		t.Fatal(err)
	}
	if len(viaDir) != 1 || !viaDir[0].Has("load5") {
		t.Fatalf("directory view = %v (trusted chain should see load)", viaDir)
	}

	// The same anonymous user directly at the provider sees no load data.
	direct, err := host.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	raw, err := direct.Search(host.Suffix, "(objectclass=*)")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range raw {
		if e.Has("load5") {
			t.Fatalf("anonymous direct view leaked load: %s", e)
		}
	}
}

// TestReferralFollowWithReauthentication exercises §10.4's restricted-data
// flow: the directory cannot proxy the data, returns a referral, and the
// client follows it to the provider, re-authenticating there.
func TestReferralFollowWithReauthentication(t *testing.T) {
	g, err := NewSimGrid(71)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	dir, err := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v",
		Strategy: referralStrategy()})
	if err != nil {
		t.Fatal(err)
	}
	pol := gsi.NewPolicy(gsi.PostureRestricted).
		Grant("anonymous", "objectclass", "hn", "system").
		Grant("cn=scheduler", "*")
	host, err := g.AddHost("h1", HostOptions{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	host.RegisterWith(dir, "v", 10*time.Second, time.Hour)
	waitUntil(t, "registration", func() bool { return len(dir.GIIS.Children()) == 1 })

	schedKeys, err := g.CA.Issue("cn=scheduler", time.Hour, g.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	user, err := dir.Client("sched")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()

	entries, err := user.SearchFollowingReferrals(ldap.MustParseDN("vo=v"), ldap.ScopeWholeSubtree, "(objectclass=loadaverage)",
		func(url ldap.URL) (*grip.Client, error) {
			return g.Connect("sched", url)
		},
		func(c *grip.Client) error {
			_, err := c.Authenticate(schedKeys, g.Trust)
			return err
		}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Has("load5") {
		t.Fatalf("followed referral entries = %v", entries)
	}
	// Without authentication the follow-up filter is refused at the
	// provider, so only public data (none matching the load filter) comes
	// back.
	entries, err = user.SearchFollowingReferrals(ldap.MustParseDN("vo=v"), ldap.ScopeWholeSubtree, "(objectclass=loadaverage)",
		func(url ldap.URL) (*grip.Client, error) {
			return g.Connect("anon", url)
		}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Has("load5") {
			t.Fatalf("anonymous follow leaked restricted data: %s", e)
		}
	}
	// The directory itself never chained (it only referred).
	if dir.GIIS.ChainedOps.Value() != 0 {
		t.Fatalf("referral directory chained %d times", dir.GIIS.ChainedOps.Value())
	}
}

// TestSignedInvitations: a host requiring signed invitations joins only on
// authentic invites; forged ones are ignored.
func TestSignedInvitations(t *testing.T) {
	g, err := NewSimGrid(75)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	dir, err := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v"})
	if err != nil {
		t.Fatal(err)
	}
	host, err := g.AddHost("h1", HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	host.AcceptInvitations("v", 10*time.Second, time.Hour)
	host.RequireSignedInvitations()

	// A forged, unsigned invitation is ignored.
	forged := forgedInvite(g, dir)
	g.Net.SendDatagram("evil", "h1", forged)
	time.Sleep(20 * time.Millisecond)
	if len(dir.GIIS.Children()) != 0 {
		t.Fatal("forged invitation accepted")
	}
	// The directory's real (signed) invitation is honoured.
	if err := dir.Invite("h1", "v", time.Minute); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "invited registration", func() bool { return len(dir.GIIS.Children()) == 1 })
}

func forgedInvite(g *Grid, dir *DirectoryNode) []byte {
	now := g.Clock.Now()
	m := grrp.Message{
		Type:       grrp.TypeInvite,
		ServiceURL: dir.URL.String(),
		MDSType:    "giis",
		VO:         "v",
		SuffixDN:   "vo=v",
		IssuedAt:   now,
		ValidUntil: now.Add(time.Minute),
	}
	return m.Marshal()
}
