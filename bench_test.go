// Top-level micro-benchmarks: one per figure or claim in DESIGN.md §4 that
// has a dominant operation worth timing. The invariants themselves are
// asserted by the tests that index names; the acceptance benchmark is bench/.
package mds2_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"mds2/internal/bloom"
	"mds2/internal/core"
	"mds2/internal/detect"
	"mds2/internal/giis"
	"mds2/internal/grip"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/matchmake"
	"mds2/internal/mds1"
	"mds2/internal/nws"
	"mds2/internal/providers"
	"mds2/internal/softstate"
)

// buildGrid assembles a simulated grid with n registered hosts behind one
// directory using the given strategy.
func buildGrid(b *testing.B, n int, strategy *giis.Strategy) (*core.Grid, *core.DirectoryNode) {
	b.Helper()
	g, err := core.NewSimGrid(1234)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := g.AddDirectory("dir", core.DirectoryOptions{Suffix: "vo=v", Strategy: strategy})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h, err := g.AddHost(fmt.Sprintf("h%03d", i), core.HostOptions{Org: fmt.Sprintf("org%d", i%4)})
		if err != nil {
			b.Fatal(err)
		}
		h.RegisterWith(dir, "v", 10*time.Second, time.Hour)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(dir.GIIS.Children()) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(dir.GIIS.Children()) != n {
		b.Fatalf("only %d/%d registrations settled", len(dir.GIIS.Children()), n)
	}
	return g, dir
}

// BenchmarkFig2DiscoveryLookup measures the Figure 2 end-to-end flow: one
// discovery at the directory plus one direct lookup at a provider, over
// real LDAP bytes.
func BenchmarkFig2DiscoveryLookup(b *testing.B) {
	g, dir := buildGrid(b, 8, nil)
	defer g.Close()
	user, err := dir.Client("user")
	if err != nil {
		b.Fatal(err)
	}
	defer user.Close()
	base := ldap.MustParseDN("vo=v")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		entries, err := user.Search(base, "(&(objectclass=computer)(hn=h003))")
		if err != nil || len(entries) != 1 {
			b.Fatalf("discovery: %v %d", err, len(entries))
		}
	}
}

// BenchmarkFig4RegistrationIngest measures the directory-side cost of the
// sustained GRRP streams that make Figure 4's convergence work.
func BenchmarkFig4RegistrationIngest(b *testing.B) {
	for _, signed := range []bool{false, true} {
		name := "unsigned"
		if signed {
			name = "signed"
		}
		b.Run(name, func(b *testing.B) {
			clock := softstate.NewFakeClock()
			ca, _ := gsi.NewAuthority("o=ca")
			trust := gsi.NewTrustStore()
			trust.TrustAuthority(ca)
			cfg := giis.Config{Name: "d", Suffix: ldap.MustParseDN("vo=v"),
				SelfURL: ldap.MustParseURL("sim://d:389"), Clock: clock,
				Dial: func(ldap.URL) (*ldap.Client, error) { return nil, io.EOF }}
			if signed {
				cfg.Trust = trust
				cfg.RequireSignedRegistrations = true
			}
			s := giis.New(cfg)
			defer s.Close()
			keys, _ := ca.Issue("cn=gris.h", 1000*time.Hour, clock.Now())
			now := clock.Now()
			msgs := make([][]byte, 64)
			for i := range msgs {
				gm := &grrp.Message{
					ServiceURL: fmt.Sprintf("sim://h%03d:389", i),
					SuffixDN:   fmt.Sprintf("hn=h%03d, o=g", i),
					IssuedAt:   now,
					ValidUntil: now.Add(time.Hour),
				}
				if signed {
					gm.Sign(keys)
				}
				msgs[i] = gm.Marshal()
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Receiver().HandleDatagram("h", msgs[i%len(msgs)])
			}
		})
	}
}

// BenchmarkE3ScopedSearch contrasts root and scoped query cost as provider
// count grows (experiment E3).
func BenchmarkE3ScopedSearch(b *testing.B) {
	for _, n := range []int{8, 32} {
		g, dir := buildGrid(b, n, nil)
		user, err := dir.Client("user")
		if err != nil {
			b.Fatal(err)
		}
		root := ldap.MustParseDN("vo=v")
		scoped := ldap.MustParseDN("hn=h001, o=org1, vo=v")
		b.Run(fmt.Sprintf("root/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := user.Search(root, "(objectclass=computer)"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scoped/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := user.Search(scoped, "(objectclass=computer)"); err != nil {
					b.Fatal(err)
				}
			}
		})
		user.Close()
		g.Close()
	}
}

// BenchmarkGIISStrategies is the DESIGN.md ablation: every -strategy preset
// answering the same targeted query, built by name as the flag builds it
// (sharded as a one-member ring). CI runs it once per push, so every plan
// that feeds the fan-out engine is exercised end to end.
func BenchmarkGIISStrategies(b *testing.B) {
	for _, name := range strings.Split(giis.StrategyNames(), " | ") {
		b.Run(name, func(b *testing.B) {
			strategy, err := giis.NewStrategy(name, giis.StrategyConfig{CacheTTL: time.Hour,
				Ring: "s0=sim://dir:389", ShardID: "s0", Replicas: 1, ShardMode: "proxy"})
			if err != nil {
				b.Fatal(err)
			}
			g, dir := buildGrid(b, 16, strategy)
			defer g.Close()
			user, err := dir.Client("user")
			if err != nil {
				b.Fatal(err)
			}
			defer user.Close()
			base := ldap.MustParseDN("vo=v")
			// Warm caches/summaries.
			if _, err := user.Search(base, "(&(objectclass=computer)(hn=h005))"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := user.Search(base, "(&(objectclass=computer)(hn=h005))"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGIISIndexUnderChurn is the register-storm workload in process:
// a directory holding n registrations answers a one-level name-index search
// (50 of them match, at every n) after every refresh. A refresh must cost
// the next search neither a re-parse nor a rebuild of the registrations, and
// the search must cost what it returns: the provider-count axis of the MDS2
// performance studies, which should stay flat.
func BenchmarkGIISIndexUnderChurn(b *testing.B) {
	for _, providers := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("providers=%dk", providers/1000), func(b *testing.B) {
			benchIndexUnderChurn(b, providers)
		})
	}
}

func benchIndexUnderChurn(b *testing.B, providers int) {
	const perVO = 50
	vos := providers / perVO
	s := giis.New(giis.Config{Name: "d", Suffix: ldap.MustParseDN("o=grid"),
		SelfURL: ldap.MustParseURL("sim://d:389"),
		Dial:    func(ldap.URL) (*ldap.Client, error) { return nil, io.EOF }})
	defer s.Close()
	now := time.Now()
	msgs := make([]*grrp.Message, providers)
	for i := range msgs {
		msgs[i] = &grrp.Message{
			Type: grrp.TypeRegister, MDSType: "gris", VO: fmt.Sprintf("vo%d", i%vos),
			ServiceURL: fmt.Sprintf("ldap://p%d.grid.example:2135", i),
			SuffixDN:   fmt.Sprintf("hn=p%d, ou=providers, o=grid", i),
			IssuedAt:   now, ValidUntil: now.Add(time.Hour),
		}
	}
	if n := s.IngestBatch(msgs); n != providers {
		b.Fatalf("accepted %d of %d registrations", n, providers)
	}
	ops := make([]*ldap.SearchRequest, vos)
	for k := range ops {
		ops[k] = &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeSingleLevel,
			Filter: ldap.MustParseFilter(fmt.Sprintf("(&(objectclass=mdsservice)(vo=vo%d))", k))}
	}
	req := &ldap.Request{Ctx: context.Background()}
	w := &countWriter{}
	s.Search(req, ops[0], w) // the first index query builds the index
	w.n = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Ingest(msgs[i%providers]) {
			b.Fatal("refresh refused")
		}
		if res := s.Search(req, ops[i%vos], w); res.Code != ldap.ResultSuccess {
			b.Fatal(res)
		}
	}
	if w.n != b.N*perVO {
		b.Fatalf("%d searches returned %d entries, want %d each", b.N, w.n, perVO)
	}
}

type countWriter struct{ n int }

func (w *countWriter) SendEntry(*ldap.Entry, ...ldap.Control) error { w.n++; return nil }
func (w *countWriter) SendReferral(...string) error                 { return nil }

// BenchmarkE1Detector measures detector throughput (experiment E1's inner
// loop): one observation plus a periodic sweep over 1000 producers.
func BenchmarkE1Detector(b *testing.B) {
	clock := softstate.NewFakeClock()
	d := detect.New(30*time.Second, clock)
	for i := 0; i < 1000; i++ {
		d.Observe(fmt.Sprintf("p%03d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Observe(fmt.Sprintf("p%03d", i%1000))
		if i%1000 == 0 {
			clock.Advance(time.Second)
			d.Check()
		}
	}
}

// BenchmarkE2GRISCache contrasts cache-hit and cache-miss query paths at a
// GRIS (experiment E2).
func BenchmarkE2GRISCache(b *testing.B) {
	host := hostinfo.New("h", hostinfo.Spec{OS: "linux", OSVer: "1", CPUType: "ia32",
		CPUCount: 4, MemoryMB: 1024}, 5)
	suffix := ldap.MustParseDN("hn=h, o=g")
	run := func(b *testing.B, ttl time.Duration) {
		srv := newGRIS(suffix, host, ttl)
		req := &ldap.SearchRequest{BaseDN: suffix.String(), Scope: ldap.ScopeWholeSubtree,
			Filter: ldap.MustParseFilter("(objectclass=loadaverage)")}
		r := &ldap.Request{State: &ldap.ConnState{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := srv.Search(r, req, nullWriter{}); res.Code != ldap.ResultSuccess {
				b.Fatal(res)
			}
		}
	}
	b.Run("hit", func(b *testing.B) { run(b, time.Hour) })
	b.Run("miss", func(b *testing.B) { run(b, 0) })
}

// BenchmarkE4CentralVsFederated measures the MDS-1 push path against the
// MDS-2 chained query path (experiment E4).
func BenchmarkE4CentralVsFederated(b *testing.B) {
	b.Run("mds1-push", func(b *testing.B) {
		clock := softstate.NewFakeClock()
		central := mds1.New(clock)
		host := hostinfo.New("h", hostinfo.Spec{OS: "linux", OSVer: "1",
			CPUType: "ia32", CPUCount: 4, MemoryMB: 1024}, 3)
		suffix := ldap.MustParseDN("hn=h, o=g")
		p := mds1.NewPusher(suffix, providers.HostBackends(host, suffix), central, time.Minute, clock)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := p.PushOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mds2-chained-query", func(b *testing.B) {
		g, dir := buildGrid(b, 1, nil)
		defer g.Close()
		user, err := dir.Client("user")
		if err != nil {
			b.Fatal(err)
		}
		defer user.Close()
		base := ldap.MustParseDN("vo=v")
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := user.Search(base, "(objectclass=loadaverage)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5BloomSummary measures summary construction and probing
// (experiment E5).
func BenchmarkE5BloomSummary(b *testing.B) {
	terms := make([]string, 200)
	for i := range terms {
		terms[i] = fmt.Sprintf("attr%d=value%d", i%20, i)
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := bloom.New(1<<14, 4)
			for _, t := range terms {
				f.Add(t)
			}
		}
	})
	b.Run("probe", func(b *testing.B) {
		f := bloom.New(1<<14, 4)
		for _, t := range terms {
			f.Add(t)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Test("attr7=value87")
		}
	})
}

// BenchmarkE6Subscription measures push-mode delivery: one provider change
// propagated to a wire subscriber (experiment E6).
func BenchmarkE6Subscription(b *testing.B) {
	g, err := core.NewSimGrid(99)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	host, err := g.AddHost("h", core.HostOptions{DynamicTTL: -1})
	if err != nil {
		b.Fatal(err)
	}
	c, err := host.Client("mon")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan struct{}, 1024)
	go c.Subscribe(ctx, host.Suffix, "(objectclass=loadaverage)", false,
		func(grip.Update) error {
			select {
			case got <- struct{}{}:
			default:
			}
			return nil
		})
	<-got // baseline
	awaitPush := func() bool {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			// The server re-evaluates on its poll interval of simulated
			// time; keep nudging the clock until the push lands.
			g.SimClock().Advance(3 * time.Second)
			select {
			case <-got:
				return true
			case <-time.After(2 * time.Millisecond):
			}
		}
		return false
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Force a decisive change each iteration: alternate injected demand
		// and let the load process converge toward it (a small single step
		// can round to the same published %.2f value — correctly no push).
		host.Host.SetDemand(float64((i%2)*20 + 1))
		host.Host.Step(10 * time.Minute)
		if !awaitPush() {
			b.Fatal("no push")
		}
	}
}

// BenchmarkE7GSIHandshake measures full mutual authentication (experiment
// E7's mechanism cost).
func BenchmarkE7GSIHandshake(b *testing.B) {
	ca, _ := gsi.NewAuthority("o=ca")
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	now := time.Now()
	client, _ := ca.Issue("cn=alice", 1000*time.Hour, now)
	server, _ := ca.Issue("cn=gris", 1000*time.Hour, now)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch := gsi.NewClientHandshake(client, trust, nil)
		sh := gsi.NewServerHandshake(server, trust, nil)
		hello, _ := ch.Hello()
		challenge, err := sh.Challenge(hello)
		if err != nil {
			b.Fatal(err)
		}
		proof, err := ch.Respond(challenge)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sh.Finish(proof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8NWSMeasure measures on-demand link measurement plus forecast
// (experiment E8).
func BenchmarkE8NWSMeasure(b *testing.B) {
	svc := nws.NewService()
	t0 := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc.Measure("src", "dst", t0)
	}
}

// BenchmarkE9Matchmake measures a ranked matchmaking decision over a 64-ad
// corpus (experiment E9).
func BenchmarkE9Matchmake(b *testing.B) {
	var candidates []*matchmake.Ad
	for i := 0; i < 64; i++ {
		candidates = append(candidates, matchmake.NewAd().
			Set("dn", fmt.Sprintf("hn=h%d", i)).
			Set("cpucount", 2<<(i%6)).
			Set("load5", float64(i%8)).
			Set("arch", []string{"ia32", "mips"}[i%2]))
	}
	req := &matchmake.Ad{
		Attrs:        map[string]matchmake.Value{"need": 8.0},
		Requirements: `other.cpucount >= need && other.load5 < 4 && other.arch == "ia32"`,
		Rank:         "other.cpucount - other.load5",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := matchmake.MatchAll(req, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10ProviderVariants is covered in internal/providers
// (BenchmarkProviderInvocation: module vs script); here we measure the
// wire-vs-direct ablation from DESIGN.md §5.
func BenchmarkWireVsDirect(b *testing.B) {
	host := hostinfo.New("h", hostinfo.Spec{OS: "linux", OSVer: "1", CPUType: "ia32",
		CPUCount: 4, MemoryMB: 1024}, 5)
	suffix := ldap.MustParseDN("hn=h, o=g")
	b.Run("direct-handler", func(b *testing.B) {
		srv := newGRIS(suffix, host, time.Hour)
		req := &ldap.SearchRequest{BaseDN: suffix.String(), Scope: ldap.ScopeWholeSubtree}
		r := &ldap.Request{State: &ldap.ConnState{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.Search(r, req, nullWriter{})
		}
	})
	b.Run("wire", func(b *testing.B) {
		g, err := core.NewSimGrid(7)
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		h, err := g.AddHost("wh", core.HostOptions{})
		if err != nil {
			b.Fatal(err)
		}
		c, err := h.Client("user")
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Search(h.Suffix, "(objectclass=*)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBERCodec measures the wire codec on a realistic search message.
func BenchmarkBERCodec(b *testing.B) {
	msg := &ldap.Message{ID: 7, Op: &ldap.SearchRequest{
		BaseDN: "hn=hostX, o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter:     ldap.MustParseFilter("(&(objectclass=computer)(freecpus>=8))"),
		Attributes: []string{"hn", "load5"},
	}}
	enc := msg.Encode()
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msg.Encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ldap.ScanMessage(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Helpers.

type nullWriter struct{}

func (nullWriter) SendEntry(*ldap.Entry, ...ldap.Control) error { return nil }
func (nullWriter) SendReferral(...string) error                 { return nil }

func newGRIS(suffix ldap.DN, host *hostinfo.Host, dynTTL time.Duration) *gris.Server {
	s := gris.New(gris.Config{Suffix: suffix})
	for _, be := range providers.HostBackends(host, suffix) {
		if d, ok := be.(*providers.DynamicHost); ok {
			d.TTL = dynTTL
		}
		s.Register(be)
	}
	return s
}
