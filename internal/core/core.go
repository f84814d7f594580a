// Package core assembles complete MDS-2 deployments: hosts running GRIS
// servers, aggregate directories running GIIS servers, GRRP registration
// streams between them, and GRIP clients — over either a simulated
// wide-area network (deterministic clock, controllable partitions and
// loss) or real loopback TCP.
//
// It is the library's top-level public API: examples and the figure tests
// build Figure 2 and Figure 5 topologies with a few calls.
package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"mds2/internal/giis"
	"mds2/internal/grip"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/history"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/nws"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/providers"
	"mds2/internal/simnet"
	"mds2/internal/softstate"
)

// Grid is a running deployment fabric.
type Grid struct {
	// Clock drives all soft state. Simulated grids expose a *FakeClock
	// via SimClock.
	Clock softstate.Clock
	// Net is non-nil for simulated grids.
	Net *simnet.Network
	// CA and Trust provide the grid's security domain.
	CA    *gsi.Authority
	Trust *gsi.TrustStore

	// daemon is set on a daemon's one-node grid (Daemon.Grid), and obs
	// when it serves -obs-addr.
	daemon *Daemon
	obs    *obs.Registry

	mu      sync.Mutex
	servers []*ldap.Server
	closers []func()
}

// NewSimGrid creates a deterministic simulated grid: fake clock, simulated
// network (seeded), one certificate authority.
func NewSimGrid(seed int64) (*Grid, error) {
	return newCAGrid(softstate.NewFakeClock(), simnet.New(seed))
}

// NewLocalGrid creates a grid over real loopback TCP with the wall clock.
func NewLocalGrid() (*Grid, error) { return newCAGrid(softstate.RealClock{}, nil) }

// newCAGrid creates a grid whose one certificate authority issues every
// node's keys.
func newCAGrid(clock softstate.Clock, net *simnet.Network) (*Grid, error) {
	ca, err := gsi.NewAuthority("o=Grid CA")
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	trust.TrustAuthority(ca)
	return &Grid{Clock: clock, Net: net, CA: ca, Trust: trust}, nil
}

// SimClock returns the fake clock of a simulated grid (nil otherwise).
func (g *Grid) SimClock() *softstate.FakeClock {
	c, _ := g.Clock.(*softstate.FakeClock)
	return c
}

// Close shuts down every server and registration stream.
func (g *Grid) Close() {
	g.mu.Lock()
	closers := append([]func(){}, g.closers...)
	servers := append([]*ldap.Server{}, g.servers...)
	g.closers, g.servers = nil, nil
	g.mu.Unlock()
	for _, f := range closers {
		f()
	}
	for _, s := range servers {
		s.Close()
	}
}

func (g *Grid) track(s *ldap.Server, closer func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.servers = append(g.servers, s)
	g.closers = append(g.closers, closer)
}

// listen opens the LDAP listener for a node: on the simulated network, at
// the daemon's listen address, or on a free loopback port.
func (g *Grid) listen(node string) (net.Listener, ldap.URL, error) {
	if g.Net != nil {
		l, err := g.Net.Listen(node, "389")
		if err != nil {
			return nil, ldap.URL{}, err
		}
		return l, ldap.MustParseURL("sim://" + node + ":389"), nil
	}
	addr := "127.0.0.1:0"
	if g.daemon != nil {
		addr = g.daemon.listen
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, ldap.URL{}, err
	}
	if g.daemon == nil {
		addr = l.Addr().String()
	}
	u, err := ldap.ParseURL("ldap://" + advertised(addr))
	if err != nil {
		l.Close()
		return nil, ldap.URL{}, err
	}
	return l, u, nil
}

// serve starts a node's LDAP server on l.
func (g *Grid) serve(h ldap.Handler, l net.Listener, url ldap.URL) *ldap.Server {
	srv := ldap.NewServer(h)
	srv.Obs = g.obs
	if g.daemon != nil {
		g.daemon.serve(srv, url)
	}
	go srv.Serve(l)
	return srv
}

// identity returns a node's GSI keys: the given ones, or on a grid with a
// CA a credential issued to subject.
func (g *Grid) identity(subject string, given *gsi.KeyPair) (*gsi.KeyPair, error) {
	if given != nil || g.CA == nil {
		return given, nil
	}
	return g.CA.Issue(subject, 100*365*24*time.Hour, g.Clock.Now())
}

// openPersist opens a node's data directory, recovers what it holds into
// rounds or reg, and attaches them so that every later change is logged.
// stats is nil when the directory held nothing. A manager that failed
// before Attach holds nothing to close.
func (g *Grid) openPersist(o persist.Options, rounds persist.Rounds, reg *softstate.Registry) (pm *persist.Manager, stats *persist.RecoverStats, err error) {
	o.Obs, o.ErrorLog = g.obs, log.Default()
	if pm, err = persist.Open(o); err != nil {
		return nil, nil, err
	}
	if pm.HasState() {
		s, err := pm.Recover(rounds, reg)
		if err != nil {
			return nil, nil, fmt.Errorf("recovering %s: %w", o.Dir, err)
		}
		stats = &s
	}
	return pm, stats, pm.Attach(rounds, reg)
}

// dialer returns a GIIS dialer originating at the named node.
func (g *Grid) dialer(fromNode string) giis.Dialer {
	if g.Net == nil {
		return giis.TCPDialer
	}
	return func(url ldap.URL) (*ldap.Client, error) {
		conn, err := g.Net.Dial(fromNode, url.Address())
		if err != nil {
			return nil, err
		}
		return ldap.NewClient(conn), nil
	}
}

// Connect opens a GRIP client from a node to a service URL. For TCP grids
// fromNode is ignored.
func (g *Grid) Connect(fromNode string, url ldap.URL) (*grip.Client, error) {
	if g.Net == nil {
		return grip.Dial(url.Address())
	}
	conn, err := g.Net.Dial(fromNode, url.Address())
	if err != nil {
		return nil, err
	}
	return grip.NewClient(conn), nil
}

// grrpTransport carries registration datagrams from a node. Simulated
// grids use the lossy datagram fabric; TCP grids use the MDS-2.1 binding
// (registrations as LDAP add operations).
func (g *Grid) grrpTransport(fromNode string) grrp.Transport {
	if g.Net != nil {
		return grrp.TransportFunc(func(to string, payload []byte) error {
			g.Net.SendDatagram(fromNode, to, payload)
			return nil
		})
	}
	return grrp.LDAPTransport
}

// HostNode is one grid resource: a simulated host, its GRIS, and its
// registration machinery.
type HostNode struct {
	Name string
	Host *hostinfo.Host
	GRIS *gris.Server
	// URL is the GRIP endpoint of the node's GRIS.
	URL ldap.URL
	// Suffix is the host's namespace root.
	Suffix ldap.DN
	// Keys is the node's GSI identity.
	Keys *gsi.KeyPair
	// Archive holds recorded history when HistoryInterval was set.
	Archive *history.Archive

	grid      *Grid
	registrar *grrp.Registrar
	invites   struct {
		sync.Mutex
		accept        bool
		vo            string
		interval      time.Duration
		ttl           time.Duration
		requireSigned bool
	}
}

// HostOptions configures AddHost.
type HostOptions struct {
	// Org places the host under "hn=<name>, o=<org>"; default "grid".
	Org string
	// Spec defaults to a 4-CPU Linux box.
	Spec hostinfo.Spec
	// Seed drives the host's load process; default derived from name.
	Seed int64
	// Policy applies GSI information policy to the GRIS (nil: open).
	Policy *gsi.Policy
	// TrustedDirectories per §7.
	TrustedDirectories []string
	// WithNWS attaches a network-link provider backed by this service.
	WithNWS *nws.Service
	// CacheTTLs override provider cache TTLs (zero values keep defaults).
	DynamicTTL time.Duration
	// HistoryInterval, when positive, records the host's dynamic state
	// into an archive at this cadence and mounts the §6 archival GRIP
	// extension (history.OIDHistory).
	HistoryInterval time.Duration
	// ExtraBackends are registered on the GRIS alongside the standard set.
	ExtraBackends []gris.Backend
	// Keys is the GRIS's GSI identity; a grid with a CA issues one when it
	// is nil.
	Keys *gsi.KeyPair
	// Persist, when Dir is set, journals the GRIS's provider rounds, which
	// serve for up to WarmGrace after a restart.
	Persist   persist.Options
	WarmGrace time.Duration
}

// AddHost creates a host node, starts its GRIS server, and wires its
// invitation handler.
func (g *Grid) AddHost(name string, opts HostOptions) (*HostNode, error) {
	if opts.Org == "" {
		opts.Org = "grid"
	}
	if opts.Spec.CPUCount == 0 {
		opts.Spec = hostinfo.Spec{OS: "linux redhat", OSVer: "6.2",
			CPUType: "ia32", CPUCount: 4, MemoryMB: 1024}
	}
	if opts.Seed == 0 {
		for _, c := range name {
			opts.Seed = opts.Seed*131 + int64(c)
		}
	}
	suffix, err := ldap.ParseDN(fmt.Sprintf("hn=%s, o=%s", name, opts.Org))
	if err != nil {
		return nil, err
	}
	host := hostinfo.New(name, opts.Spec, opts.Seed)
	keys, err := g.identity("cn=gris."+name, opts.Keys)
	if err != nil {
		return nil, err
	}
	cfg := gris.Config{
		Suffix:             suffix,
		Clock:              g.Clock,
		Policy:             opts.Policy,
		Keys:               keys,
		Trust:              g.Trust,
		TrustedDirectories: opts.TrustedDirectories,
		Obs:                g.obs,
		WarmGrace:          opts.WarmGrace,
	}
	var archive *history.Archive
	var recorder *history.Recorder
	backends := providers.HostBackends(host, suffix)
	if opts.HistoryInterval > 0 {
		archive = history.NewArchive()
		for _, b := range backends {
			if d, ok := b.(*providers.DynamicHost); ok {
				recorder = history.NewRecorder(archive, d, opts.HistoryInterval, g.Clock)
			}
		}
		cfg.Extensions = map[string]gris.Extension{history.OIDHistory: history.Extension(archive)}
	}
	gs := gris.New(cfg)
	for _, b := range backends {
		if d, ok := b.(*providers.DynamicHost); ok && opts.DynamicTTL != 0 {
			d.TTL = opts.DynamicTTL // negative disables caching
		}
		gs.Register(b)
	}
	if opts.WithNWS != nil {
		gs.Register(&providers.Network{Service: opts.WithNWS, Base: suffix.ChildAVA("net", "links")})
	}
	for _, b := range opts.ExtraBackends {
		gs.Register(b)
	}
	closePersist := func() {}
	if opts.Persist.Dir != "" {
		pm, stats, err := g.openPersist(opts.Persist, gs, nil)
		if err != nil {
			return nil, err
		}
		if stats != nil {
			g.daemon.logf("restored %d warm entries from %s in %v (replayed %d records, grace %v)",
				stats.Entries, opts.Persist.Dir, stats.Duration, stats.RecordsReplayed, opts.WarmGrace)
		}
		closePersist = func() { pm.Close() }
	}

	l, url, err := g.listen(name)
	if err != nil {
		closePersist()
		return nil, err
	}
	srv := g.serve(gs, l, url)

	n := &HostNode{
		Name: name, Host: host, GRIS: gs, URL: url, Suffix: suffix, Keys: keys,
		Archive: archive,
		grid:    g, registrar: grrp.NewRegistrar(g.grrpTransport(name), g.Clock),
	}
	if g.Net != nil {
		g.Net.HandleDatagrams(name, n.handleDatagram)
	}
	if recorder != nil {
		recorder.Start()
	}
	g.track(srv, func() {
		if recorder != nil {
			recorder.Stop()
		}
		n.registrar.StopAll()
		closePersist()
	})
	return n, nil
}

// handleDatagram processes GRRP invitations: if accepting, the host turns
// around and registers with the inviting directory (§10.4: "if a GRIS
// agrees to join, it turns around and uses GRRP to register itself").
func (n *HostNode) handleDatagram(from string, payload []byte) {
	m, err := grrp.Unmarshal(payload)
	if err != nil || m.Type != grrp.TypeInvite {
		return
	}
	n.invites.Lock()
	accept := n.invites.accept && (n.invites.vo == "" || n.invites.vo == m.VO)
	interval, ttl := n.invites.interval, n.invites.ttl
	requireSigned := n.invites.requireSigned
	n.invites.Unlock()
	if !accept {
		return
	}
	if requireSigned {
		if _, err := m.VerifySignature(n.grid.Trust, n.grid.Clock.Now()); err != nil {
			return // forged or unsigned invitation
		}
	}
	url, err := ldap.ParseURL(m.ServiceURL)
	if err != nil {
		return
	}
	n.registrar.Start(n.registration(url.Host, m.VO, interval, ttl))
}

// AcceptInvitations arms the node's invitation policy: it will join
// directories inviting it for the given VO ("" = any).
func (n *HostNode) AcceptInvitations(vo string, interval, ttl time.Duration) {
	n.invites.Lock()
	n.invites.accept = true
	n.invites.vo = vo
	n.invites.interval = interval
	n.invites.ttl = ttl
	n.invites.Unlock()
}

// RequireSignedInvitations makes the node ignore invitations that are not
// signed by a credential chained to the grid's trust store — the "control
// which registration events are accepted" requirement of §7, applied to
// invitation.
func (n *HostNode) RequireSignedInvitations() {
	n.invites.Lock()
	n.invites.requireSigned = true
	n.invites.Unlock()
}

// RegisterWith starts a sustained GRRP stream to a directory.
func (n *HostNode) RegisterWith(d *DirectoryNode, vo string, interval, ttl time.Duration) grrp.Registration {
	reg := n.registration(d.GRRPTarget(), vo, interval, ttl)
	n.registrar.Start(reg)
	return reg
}

// RegisterAt starts a sustained GRRP stream to each directory address:
// every owner, when the directories form a sharded ring.
func (n *HostNode) RegisterAt(targets []string, vo string, interval, ttl time.Duration) {
	n.registrar.StartFanout(n.registration("", vo, interval, ttl), targets)
}

// registration is the node's GRRP stream to target, signed with its keys
// (unsigned without).
func (n *HostNode) registration(target, vo string, interval, ttl time.Duration) grrp.Registration {
	return grrp.Registration{
		Target: target,
		Message: grrp.Message{
			Type:       grrp.TypeRegister,
			ServiceURL: n.URL.String(),
			MDSType:    "gris",
			VO:         vo,
			SuffixDN:   n.Suffix.String(),
		},
		Interval: interval,
		TTL:      ttl,
		Keys:     n.Keys,
	}
}

// Registrar exposes the node's registration machinery (pause/resume in
// failure-injection experiments).
func (n *HostNode) Registrar() *grrp.Registrar { return n.registrar }

// DirectoryNode is one aggregate directory.
type DirectoryNode struct {
	Name string
	GIIS *giis.Server
	URL  ldap.URL
	Keys *gsi.KeyPair

	grid      *Grid
	registrar *grrp.Registrar
}

// DirectoryOptions configures AddDirectory.
type DirectoryOptions struct {
	// Suffix is the directory's namespace root (e.g. "vo=alliance").
	Suffix string
	// Strategy defaults to the chain preset.
	Strategy *giis.Strategy
	// AcceptVO restricts admission (§2.3).
	AcceptVO string
	// RequireSigned demands signed registrations.
	RequireSigned bool
	// AuthChildren makes the directory authenticate to providers with its
	// own credential when chaining (§10.4 trusted server credential).
	AuthChildren bool
	// Extensions maps extended-operation OIDs to handlers (§6 GRIP
	// extension point).
	Extensions map[string]giis.Extension
	// Keys is the directory's GSI identity; a grid with a CA issues one
	// when it is nil.
	Keys *gsi.KeyPair
	// QueryCache, QueryCacheTTL and QueryCacheMax configure the chained
	// query-result cache (see giis.Config).
	QueryCache    bool
	QueryCacheTTL time.Duration
	QueryCacheMax int
	// Persist, when Dir is set, logs the directory's registrations and
	// recovers them at start.
	Persist persist.Options
}

// AddDirectory creates a directory node and starts its GIIS server.
func (g *Grid) AddDirectory(name string, opts DirectoryOptions) (*DirectoryNode, error) {
	suffix, err := ldap.ParseDN(opts.Suffix)
	if err != nil {
		return nil, err
	}
	keys, err := g.identity("cn=giis."+name, opts.Keys)
	if err != nil {
		return nil, err
	}
	if (opts.AuthChildren || opts.RequireSigned) && (keys == nil || g.Trust == nil) {
		return nil, errors.New("core: authenticated chaining and signed registrations need keys and a trust anchor")
	}
	l, url, err := g.listen(name)
	if err != nil {
		return nil, err
	}
	gs := giis.New(giis.Config{
		Name:                       name,
		Suffix:                     suffix,
		SelfURL:                    url,
		Clock:                      g.Clock,
		Dial:                       g.dialer(name),
		Strategy:                   opts.Strategy,
		AcceptVO:                   opts.AcceptVO,
		Keys:                       keys,
		Trust:                      g.Trust,
		RequireSignedRegistrations: opts.RequireSigned,
		AuthChildren:               opts.AuthChildren,
		Extensions:                 opts.Extensions,
		Obs:                        g.obs,
		QueryCache:                 opts.QueryCache,
		QueryCacheTTL:              opts.QueryCacheTTL,
		QueryCacheMax:              opts.QueryCacheMax,
	})
	closeGIIS := gs.Close
	if opts.Persist.Dir != "" {
		o := opts.Persist
		o.Codec = persist.PayloadCodec{Encode: grrp.EncodePayload, Decode: grrp.DecodePayload}
		pm, stats, err := g.openPersist(o, nil, gs.Receiver().Registry)
		if err != nil {
			l.Close()
			gs.Close()
			return nil, err
		}
		if stats != nil {
			g.daemon.logf("recovered %d registrations from %s in %v (replayed %d records, grace %v)",
				stats.Registrations, o.Dir, stats.Duration, stats.RecordsReplayed, o.RecoveryGrace)
		}
		closeGIIS = func() {
			pm.Close()
			gs.Close()
		}
	}
	srv := g.serve(gs, l, url)

	d := &DirectoryNode{
		Name: name, GIIS: gs, URL: url, Keys: keys,
		grid:      g,
		registrar: grrp.NewRegistrar(g.grrpTransport(name), g.Clock),
	}
	if g.Net != nil {
		g.Net.HandleDatagrams(name, gs.HandleDatagram)
	}
	g.track(srv, func() {
		d.registrar.StopAll()
		closeGIIS()
	})
	return d, nil
}

// GRRPTarget is the address registration streams send to: the node name on
// simulated grids (datagram fabric), the LDAP address on TCP grids
// (add-operation binding).
func (d *DirectoryNode) GRRPTarget() string {
	if d.grid.Net != nil {
		return d.Name
	}
	return d.URL.Address()
}

// RegisterWith links directories into a hierarchy (Figure 5).
func (d *DirectoryNode) RegisterWith(parent *DirectoryNode, vo string, interval, ttl time.Duration) {
	d.RegisterAt(parent.GRRPTarget(), vo, interval, ttl)
}

// RegisterAt starts a sustained GRRP stream to a parent directory's
// address, signed with the node's keys (unsigned without).
func (d *DirectoryNode) RegisterAt(target, vo string, interval, ttl time.Duration) {
	reg := d.GIIS.SelfRegistration(target, vo, interval, ttl)
	reg.Keys = d.Keys
	d.registrar.Start(reg)
}

// Invite asks the service at a node/address to join this directory.
func (d *DirectoryNode) Invite(targetNode, vo string, ttl time.Duration) error {
	return d.GIIS.Invite(d.grid.grrpTransport(d.Name), targetNode, vo, ttl)
}

// Registrar exposes the directory's own registration streams.
func (d *DirectoryNode) Registrar() *grrp.Registrar { return d.registrar }

// Client connects a GRIP client to this directory from a user node.
func (d *DirectoryNode) Client(fromNode string) (*grip.Client, error) {
	return d.grid.Connect(fromNode, d.URL)
}

// Client connects a GRIP client straight to this host's GRIS.
func (n *HostNode) Client(fromNode string) (*grip.Client, error) {
	return n.grid.Connect(fromNode, n.URL)
}
