package core

import (
	"context"
	"testing"
	"time"

	"mds2/internal/giis"
	"mds2/internal/grip"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/ldap/ldif"
	"mds2/internal/nws"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + what)
}

// TestFigure2Flow reproduces the architecture overview: a user discovers
// entities through an aggregate directory, then looks one up directly at
// its information provider.
func TestFigure2Flow(t *testing.T) {
	g, err := NewSimGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	dir, err := g.AddDirectory("giis-vo", DirectoryOptions{Suffix: "vo=alliance"})
	if err != nil {
		t.Fatal(err)
	}
	hostA, err := g.AddHost("hostA", HostOptions{Org: "center1"})
	if err != nil {
		t.Fatal(err)
	}
	hostB, err := g.AddHost("hostB", HostOptions{Org: "center1"})
	if err != nil {
		t.Fatal(err)
	}
	hostA.RegisterWith(dir, "alliance", 10*time.Second, time.Minute)
	hostB.RegisterWith(dir, "alliance", 10*time.Second, time.Minute)
	waitUntil(t, "registrations", func() bool { return len(dir.GIIS.Children()) == 2 })

	// Discovery (GRIP search at the directory).
	user, err := dir.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	computers, err := user.Search(ldap.MustParseDN("vo=alliance"), "(objectclass=computer)")
	if err != nil {
		t.Fatal(err)
	}
	if len(computers) != 2 {
		t.Fatalf("discovered %d computers", len(computers))
	}

	// Lookup (GRIP enquiry direct to the provider).
	direct, err := hostA.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	e, err := direct.Lookup(hostA.Suffix)
	if err != nil {
		t.Fatal(err)
	}
	if e.First("hn") != "hostA" {
		t.Fatalf("lookup = %s", e)
	}
}

func TestSoftStateExpiryOnSilence(t *testing.T) {
	g, _ := NewSimGrid(2)
	defer g.Close()
	dir, _ := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v"})
	host, _ := g.AddHost("h1", HostOptions{})
	reg := host.RegisterWith(dir, "v", 10*time.Second, 35*time.Second)
	waitUntil(t, "registration", func() bool { return len(dir.GIIS.Children()) == 1 })

	// Silence the provider; the directory purges it after the TTL.
	host.Registrar().Pause(reg)
	for i := 0; i < 5; i++ {
		g.SimClock().Advance(10 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	if len(dir.GIIS.Children()) != 0 {
		t.Fatal("silent provider should expire")
	}
	// Resume: soft state re-establishes without recovery logic.
	host.Registrar().Resume(reg)
	g.SimClock().Advance(10 * time.Second)
	waitUntil(t, "re-registration", func() bool { return len(dir.GIIS.Children()) == 1 })
}

// TestFigure1Partition reproduces the paper's first figure: VO-B splits
// into two fragments that each keep operating with the resources on their
// side, then reconverge when the network heals.
func TestFigure1Partition(t *testing.T) {
	g, _ := NewSimGrid(3)
	defer g.Close()
	// VO-B runs two replicated directories on different sides.
	dirEast, _ := g.AddDirectory("dir-east", DirectoryOptions{Suffix: "vo=b"})
	dirWest, _ := g.AddDirectory("dir-west", DirectoryOptions{Suffix: "vo=b"})
	east, _ := g.AddHost("east1", HostOptions{Org: "east"})
	west, _ := g.AddHost("west1", HostOptions{Org: "west"})
	// Every host registers with both directories (replication).
	for _, h := range []*HostNode{east, west} {
		h.RegisterWith(dirEast, "b", 5*time.Second, 20*time.Second)
		h.RegisterWith(dirWest, "b", 5*time.Second, 20*time.Second)
	}
	waitUntil(t, "full registration", func() bool {
		return len(dirEast.GIIS.Children()) == 2 && len(dirWest.GIIS.Children()) == 2
	})

	// Partition east from west.
	g.Net.SetPartitions(
		[]string{"dir-east", "east1", "user-east"},
		[]string{"dir-west", "west1", "user-west"},
	)
	for i := 0; i < 6; i++ {
		g.SimClock().Advance(5 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	// Each fragment sees exactly its own side (divergent directories,
	// Figure 4).
	if n := len(dirEast.GIIS.Children()); n != 1 {
		t.Fatalf("east children = %d", n)
	}
	if n := len(dirWest.GIIS.Children()); n != 1 {
		t.Fatalf("west children = %d", n)
	}
	// Users on each side still get answers from their fragment.
	eu, err := dirEast.Client("user-east")
	if err != nil {
		t.Fatal(err)
	}
	defer eu.Close()
	entries, err := eu.Search(ldap.MustParseDN("vo=b"), "(objectclass=computer)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].First("hn") != "east1" {
		t.Fatalf("east fragment sees %v", entries)
	}

	// Heal: the sustained streams reconverge both directories.
	g.Net.Heal()
	g.SimClock().Advance(5 * time.Second)
	waitUntil(t, "reconvergence", func() bool {
		return len(dirEast.GIIS.Children()) == 2 && len(dirWest.GIIS.Children()) == 2
	})
}

// TestFigure5Hierarchy builds the two-center + individual topology and
// exercises scoped and root searches.
func TestFigure5Hierarchy(t *testing.T) {
	g, _ := NewSimGrid(4)
	defer g.Close()
	vo, _ := g.AddDirectory("vo-dir", DirectoryOptions{Suffix: "vo=alliance"})
	c1, _ := g.AddDirectory("center1-dir", DirectoryOptions{Suffix: "o=o1"})
	c2, _ := g.AddDirectory("center2-dir", DirectoryOptions{Suffix: "o=o2"})

	// Center 1 contributes R1..R3; center 2 contributes R1, R2 (same leaf
	// names, different scopes — §8 relative uniqueness).
	for _, r := range []string{"r1", "r2", "r3"} {
		h, err := g.AddHost(r+".o1", HostOptions{Org: "o1"})
		if err != nil {
			t.Fatal(err)
		}
		h.RegisterWith(c1, "alliance", 10*time.Second, time.Minute)
	}
	for _, r := range []string{"r1", "r2"} {
		h, err := g.AddHost(r+".o2", HostOptions{Org: "o2"})
		if err != nil {
			t.Fatal(err)
		}
		h.RegisterWith(c2, "alliance", 10*time.Second, time.Minute)
	}
	// One individual contributes a host directly to the VO.
	indiv, _ := g.AddHost("r1.individual", HostOptions{Org: "home"})
	indiv.RegisterWith(vo, "alliance", 10*time.Second, time.Minute)
	// Center directories register with the VO directory.
	c1.RegisterWith(vo, "alliance", 10*time.Second, time.Minute)
	c2.RegisterWith(vo, "alliance", 10*time.Second, time.Minute)

	waitUntil(t, "topology", func() bool {
		return len(vo.GIIS.Children()) == 3 &&
			len(c1.GIIS.Children()) == 3 && len(c2.GIIS.Children()) == 2
	})

	user, err := vo.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	// Root search sees all six hosts across the hierarchy.
	all, err := user.Search(ldap.MustParseDN("vo=alliance"), "(objectclass=computer)")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Fatalf("root search = %d hosts", len(all))
	}
	// Scoped search to organization o2 sees exactly its two.
	scoped, err := user.Search(ldap.MustParseDN("o=o2, vo=alliance"), "(objectclass=computer)")
	if err != nil {
		t.Fatal(err)
	}
	if len(scoped) != 2 {
		t.Fatalf("scoped search = %d hosts", len(scoped))
	}
}

func TestInvitationJoinsVO(t *testing.T) {
	g, _ := NewSimGrid(5)
	defer g.Close()
	dir, _ := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v"})
	host, _ := g.AddHost("h1", HostOptions{})
	host.AcceptInvitations("v", 10*time.Second, time.Minute)

	if err := dir.Invite("h1", "v", time.Minute); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "invited registration", func() bool { return len(dir.GIIS.Children()) == 1 })
	// The invited host declines foreign VOs.
	host2, _ := g.AddHost("h2", HostOptions{})
	host2.AcceptInvitations("other-vo", 10*time.Second, time.Minute)
	dir.Invite("h2", "v", time.Minute)
	time.Sleep(20 * time.Millisecond)
	if len(dir.GIIS.Children()) != 1 {
		t.Fatal("host should decline invitation for foreign VO")
	}
}

func TestSignedRegistrationsOnGrid(t *testing.T) {
	g, _ := NewSimGrid(6)
	defer g.Close()
	dir, _ := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v", RequireSigned: true})
	host, _ := g.AddHost("h1", HostOptions{})
	host.RegisterWith(dir, "v", 10*time.Second, time.Minute)
	waitUntil(t, "signed registration", func() bool { return len(dir.GIIS.Children()) == 1 })
	// An unsigned forgery is refused.
	now := g.Clock.Now()
	forged := &grrp.Message{Type: grrp.TypeRegister, ServiceURL: "sim://evil:389",
		SuffixDN: "hn=evil", IssuedAt: now, ValidUntil: now.Add(time.Hour)}
	g.Net.SendDatagram("evil", "dir", forged.Marshal())
	time.Sleep(10 * time.Millisecond)
	if len(dir.GIIS.Children()) != 1 {
		t.Fatal("unsigned registration accepted")
	}
}

func TestGSIAuthenticatedSearchOverWire(t *testing.T) {
	g, _ := NewSimGrid(7)
	defer g.Close()
	// Policy: anonymous sees nothing but existence; the scheduler subject
	// sees load (§7 worked example).
	pol := newRestrictedPolicy()
	host, err := g.AddHost("h1", HostOptions{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	schedKeys, err := g.CA.Issue("cn=scheduler", time.Hour, g.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	c, err := host.Client("sched")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Anonymous: restricted filter rejected.
	if _, err := c.Search(host.Suffix, "(load5<=99)"); err == nil {
		t.Fatal("anonymous restricted filter should fail")
	}
	// Authenticate; now the filter is allowed and values visible.
	serverCred, err := c.Authenticate(schedKeys, g.Trust)
	if err != nil {
		t.Fatal(err)
	}
	if serverCred.EndEntity() != "cn=gris.h1" {
		t.Fatalf("server identity = %q", serverCred.EndEntity())
	}
	entries, err := c.Search(host.Suffix, "(load5<=9999)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Has("load5") {
		t.Fatalf("scheduler view = %v", entries)
	}
}

func newRestrictedPolicy() *gsi.Policy {
	return gsi.NewPolicy(gsi.PostureRestricted).
		Grant("anonymous", "objectclass", "hn", "system").
		Grant("cn=scheduler", "*")
}

func TestSubscriptionOverGrid(t *testing.T) {
	g, _ := NewSimGrid(8)
	defer g.Close()
	host, _ := g.AddHost("h1", HostOptions{DynamicTTL: time.Second})
	c, err := host.Client("monitor")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	updates := make(chan string, 64)
	go func() {
		c.Subscribe(ctx, host.Suffix, "(objectclass=loadaverage)", false,
			func(u grip.Update) error {
				updates <- u.Entry.First("load5")
				return nil
			})
	}()
	// Baseline arrives.
	select {
	case <-updates:
	case <-time.After(5 * time.Second):
		t.Fatal("no baseline update")
	}
	// Step the host so the load changes, advance past cache TTL + poll.
	host.Host.Step(30 * time.Minute)
	deadline := time.After(5 * time.Second)
	for {
		g.SimClock().Advance(2 * time.Second)
		select {
		case <-updates:
			return // got a pushed change
		case <-deadline:
			t.Fatal("no pushed update after change")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestMatchmakerExtension(t *testing.T) {
	g, _ := NewSimGrid(9)
	defer g.Close()
	// Directory with a cached index (the matchmaker needs a corpus) and
	// the matchmaker extension mounted.
	strategy, err := giis.NewStrategy("cache", giis.StrategyConfig{CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := g.AddDirectory("dir", DirectoryOptions{
		Suffix:   "vo=v",
		Strategy: strategy,
		Extensions: map[string]giis.Extension{
			OIDMatchmake: MatchmakeExtension(strategy),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	big, _ := g.AddHost("big", HostOptions{Spec: hostSpec(64, "mips irix", "mips")})
	small, _ := g.AddHost("small", HostOptions{Spec: hostSpec(2, "linux redhat", "ia32")})
	big.RegisterWith(dir, "v", 10*time.Second, time.Minute)
	small.RegisterWith(dir, "v", 10*time.Second, time.Minute)
	waitUntil(t, "registrations", func() bool { return len(dir.GIIS.Children()) == 2 })

	c, err := dir.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm the index.
	if _, err := c.Search(ldap.MustParseDN("vo=v"), "(objectclass=computer)"); err != nil {
		t.Fatal(err)
	}
	// The join-like request LDAP filters cannot express: rank by CPU count.
	req := "requirements: other.cpucount >= 32\nrank: other.cpucount\n"
	out, err := c.Extended(OIDMatchmake, []byte(req))
	if err != nil {
		t.Fatal(err)
	}
	matched, err := ldif.ParseString(string(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) != 1 || matched[0].First("hn") != "big" {
		t.Fatalf("matchmaker results = %v", matched)
	}
}

func hostSpec(cpus int, os, arch string) hostinfo.Spec {
	return hostinfo.Spec{OS: os, OSVer: "1.0", CPUType: arch, CPUCount: cpus, MemoryMB: 1024 * cpus}
}

func TestLocalTCPGrid(t *testing.T) {
	g, err := NewLocalGrid()
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
	// TCP grids carry GRRP as LDAP adds (the MDS-2.1 binding).
	host.RegisterWith(dir, "v", 50*time.Millisecond, 10*time.Second)
	waitUntil(t, "tcp registration", func() bool { return len(dir.GIIS.Children()) == 1 })
	c, err := dir.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.Search(ldap.MustParseDN("vo=v"), "(objectclass=computer)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("tcp search = %d", len(entries))
	}
}

func TestNWSProviderOnGrid(t *testing.T) {
	g, _ := NewSimGrid(10)
	defer g.Close()
	svc := nws.NewService()
	host, _ := g.AddHost("h1", HostOptions{WithNWS: svc})
	c, err := host.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	entries, err := c.Search(host.Suffix, "(&(objectclass=networklink)(src=ufl.edu)(dst=anl.gov))")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].Has("bandwidthmbps") {
		t.Fatalf("nws entries = %v", entries)
	}
	if svc.Measured() != 1 {
		t.Errorf("measured = %d (lazy generation expected)", svc.Measured())
	}
}
