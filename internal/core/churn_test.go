package core

import (
	"fmt"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
)

// TestLargeGridChurn soaks a 40-host, three-directory hierarchy through
// membership churn: waves of hosts fall silent and return while queries
// keep running. The invariants: queries never fail outright, the live set
// tracks the truly alive set once soft state settles, and nothing deadlocks.
func TestLargeGridChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		hostsPerCenter = 20
		refresh        = 5 * time.Second
		ttl            = 20 * time.Second
	)
	g, err := NewSimGrid(777)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	vo, err := g.AddDirectory("vo", DirectoryOptions{Suffix: "vo=big"})
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]*DirectoryNode, 2)
	for i := range centers {
		c, err := g.AddDirectory(fmt.Sprintf("center%d", i), DirectoryOptions{
			Suffix: fmt.Sprintf("o=c%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		c.RegisterWith(vo, "big", refresh, ttl)
		centers[i] = c
	}
	type member struct {
		node *HostNode
		reg  grrp.Registration
	}
	var members []member
	for i := 0; i < 2*hostsPerCenter; i++ {
		h, err := g.AddHost(fmt.Sprintf("n%02d", i), HostOptions{Org: fmt.Sprintf("c%d", i%2)})
		if err != nil {
			t.Fatal(err)
		}
		reg := h.RegisterWith(centers[i%2], "big", refresh, ttl)
		members = append(members, member{h, reg})
	}
	// settle advances the clock a refresh at a time. After each step it
	// waits for every stream not in paused (the centers' and the hosts') to
	// have refreshed within the last interval, so only paused streams age.
	settle := func(steps int, paused map[int]bool) {
		var live []stream
		for _, c := range centers {
			live = append(live, stream{vo, c.URL})
		}
		for i, m := range members {
			if !paused[i] {
				live = append(live, stream{centers[i%2], m.node.URL})
			}
		}
		for i := 0; i < steps; i++ {
			g.SimClock().Advance(refresh)
			awaitRefreshed(t, g, refresh, live)
		}
	}
	waitUntil(t, "initial registration", func() bool {
		return len(centers[0].GIIS.Children()) == hostsPerCenter &&
			len(centers[1].GIIS.Children()) == hostsPerCenter &&
			len(vo.GIIS.Children()) == 2
	})

	user, err := vo.Client("user")
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	count := func() int {
		entries, err := user.Search(ldap.MustParseDN("vo=big"), "(objectclass=computer)")
		if err != nil {
			t.Fatalf("query failed mid-churn: %v", err)
		}
		return len(entries)
	}
	if got := count(); got != 2*hostsPerCenter {
		t.Fatalf("initial visible = %d", got)
	}

	// Churn waves: kill every 4th host, settle, verify, revive, verify.
	alive := 2 * hostsPerCenter
	for wave := 0; wave < 3; wave++ {
		var killed []member
		paused := map[int]bool{}
		for i, m := range members {
			if i%4 == wave {
				m.node.Registrar().Pause(m.reg)
				killed = append(killed, m)
				paused[i] = true
			}
		}
		settle(int(ttl/refresh)+2, paused)
		want := alive - len(killed)
		if got := count(); got != want {
			t.Fatalf("wave %d: visible = %d, want %d", wave, got, want)
		}
		for _, m := range killed {
			m.node.Registrar().Resume(m.reg)
		}
		settle(2, paused) // the revived streams are awaited below
		waitUntil(t, "wave recovery", func() bool { return count() == alive })
	}
}

// TestConcurrentQueriesDuringChurn hammers a directory with parallel
// queries while registrations expire and renew; no query may error.
func TestConcurrentQueriesDuringChurn(t *testing.T) {
	g, err := NewSimGrid(888)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	dir, err := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v"})
	if err != nil {
		t.Fatal(err)
	}
	var regs []grrp.Registration
	var nodes []*HostNode
	for i := 0; i < 8; i++ {
		h, err := g.AddHost(fmt.Sprintf("q%d", i), HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, h.RegisterWith(dir, "v", 5*time.Second, 20*time.Second))
		nodes = append(nodes, h)
	}
	waitUntil(t, "registration", func() bool { return len(dir.GIIS.Children()) == 8 })

	stop := make(chan struct{})
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			c, err := dir.Client(fmt.Sprintf("user%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if _, err := c.Search(ldap.MustParseDN("vo=v"), "(objectclass=computer)"); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 10; round++ {
		nodes[round%8].Registrar().Pause(regs[round%8])
		g.SimClock().Advance(5 * time.Second)
		// Wait for the streams that were live through this round and the
		// last: the one paused now and the one paused last round are out.
		var live []stream
		for i, n := range nodes {
			if i != round%8 && (round == 0 || i != (round-1)%8) {
				live = append(live, stream{dir, n.URL})
			}
		}
		awaitRefreshed(t, g, 5*time.Second, live)
		nodes[round%8].Registrar().Resume(regs[round%8])
	}
	close(stop)
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// stream is one registration: a service URL registered at a directory.
type stream struct {
	dir *DirectoryNode
	url ldap.URL
}

// awaitRefreshed waits until every stream's child record was refreshed no
// more than one interval before the grid's now. A registrar arms its next
// tick before it sends, and every tick due by now has fired, so a stream
// that is behind catches up without the clock moving: a slow registrar
// delays the test instead of letting its registration expire.
func awaitRefreshed(t *testing.T, g *Grid, interval time.Duration, streams []stream) {
	t.Helper()
	waitUntil(t, "live streams refreshed", func() bool {
		since := g.Clock.Now().Add(-interval)
		children := map[*DirectoryNode]map[string]time.Time{}
		for _, s := range streams {
			byURL, ok := children[s.dir]
			if !ok {
				byURL = map[string]time.Time{}
				for _, c := range s.dir.GIIS.Children() {
					byURL[c.URL.String()] = c.LastRefresh
				}
				children[s.dir] = byURL
			}
			if last, ok := byURL[s.url.String()]; !ok || last.Before(since) {
				return false
			}
		}
		return true
	})
}
