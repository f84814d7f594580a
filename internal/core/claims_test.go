package core

import (
	"fmt"
	"testing"
	"time"

	"mds2/internal/ldap"
)

// tick advances a simulated grid's clock by one refresh interval, then
// waits until each of the streams has sent the refresh that came due. A
// stream re-arms its timer right after sending; the short sleep first lets
// the previous tick's senders do so before time moves again.
func tick(t *testing.T, g *Grid, interval time.Duration, streams int) {
	t.Helper()
	time.Sleep(5 * time.Millisecond)
	sent, _ := g.Net.Stats()
	g.SimClock().Advance(interval)
	waitUntil(t, "a refresh from every stream one interval later", func() bool {
		now, _ := g.Net.Stats()
		return now >= sent+streams
	})
}

// TestFigure4ReconvergesWithinOneInterval reproduces Figure 4: four hosts
// register with two replicated directories of one VO. A partition leaves
// each directory 2 + 2 once the cut-off registrations outlive their TTL;
// after heal, the next refresh of every stream — at most one refresh
// interval away — restores 4 + 4. No recovery protocol runs: the sustained
// soft-state streams are the whole mechanism, at every interval.
func TestFigure4ReconvergesWithinOneInterval(t *testing.T) {
	for _, interval := range []time.Duration{5 * time.Second, 15 * time.Second, 30 * time.Second} {
		t.Run(interval.String(), func(t *testing.T) {
			ttl := interval * 7 / 2
			g, err := NewSimGrid(104)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			d1, err := g.AddDirectory("d1", DirectoryOptions{Suffix: "vo=b"})
			if err != nil {
				t.Fatal(err)
			}
			d2, err := g.AddDirectory("d2", DirectoryOptions{Suffix: "vo=b"})
			if err != nil {
				t.Fatal(err)
			}
			const hosts, streams = 4, 8
			for i := 0; i < hosts; i++ {
				h, err := g.AddHost(fmt.Sprintf("h%d", i), HostOptions{})
				if err != nil {
					t.Fatal(err)
				}
				h.RegisterWith(d1, "b", interval, ttl)
				h.RegisterWith(d2, "b", interval, ttl)
			}
			split := func(want int) bool {
				return len(d1.GIIS.Children()) == want && len(d2.GIIS.Children()) == want
			}
			waitUntil(t, "registration", func() bool { return split(hosts) })

			g.Net.SetPartitions([]string{"d1", "h0", "h1"}, []string{"d2", "h2", "h3"})
			// One tick past the TTL: every cut-off registration has lapsed.
			for i := 0; i <= int(ttl/interval); i++ {
				tick(t, g, interval, streams)
			}
			if !split(2) {
				t.Fatalf("partitioned: %d + %d children, want 2 + 2",
					len(d1.GIIS.Children()), len(d2.GIIS.Children()))
			}

			g.Net.Heal()
			tick(t, g, interval, streams)
			waitUntil(t, "4 + 4 one interval after heal", func() bool { return split(hosts) })
		})
	}
}

// TestScopedSearchChainsOnlyInScope checks E3 (§3): a directory "defines a
// scope within which search operations take place", so a search chains only
// to the providers its base reaches — all n for a root search, the n/4 of
// one organization for an org-scoped search, one for a single host — at
// any grid size.
func TestScopedSearchChainsOnlyInScope(t *testing.T) {
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("%d providers", n), func(t *testing.T) {
			g, err := NewSimGrid(int64(300 + n))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			dir, err := g.AddDirectory("dir", DirectoryOptions{Suffix: "vo=v"})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				h, err := g.AddHost(fmt.Sprintf("h%03d", i), HostOptions{Org: fmt.Sprintf("org%d", i%4)})
				if err != nil {
					t.Fatal(err)
				}
				h.RegisterWith(dir, "v", 10*time.Second, time.Hour)
			}
			waitUntil(t, "registrations", func() bool { return len(dir.GIIS.Children()) == n })
			user, err := dir.Client("user")
			if err != nil {
				t.Fatal(err)
			}
			defer user.Close()
			for _, c := range []struct {
				base string
				want int
			}{
				{"vo=v", n},
				{"o=org1, vo=v", n / 4},
				{"hn=h001, o=org1, vo=v", 1},
			} {
				before := dir.GIIS.ChainedOps.Value()
				computers, err := user.Search(ldap.MustParseDN(c.base), "(objectclass=computer)")
				if err != nil {
					t.Fatalf("search at %q: %v", c.base, err)
				}
				if got := dir.GIIS.ChainedOps.Value() - before; got != int64(c.want) {
					t.Errorf("search at %q chained %d ops, want %d", c.base, got, c.want)
				}
				if len(computers) != c.want {
					t.Errorf("search at %q found %d computers, want %d", c.base, len(computers), c.want)
				}
			}
		})
	}
}
