package core

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/softstate"
)

// Defaults shared by the daemons' flags and the topology format.
const (
	// DefaultInterval and DefaultTTL pace a registration stream.
	DefaultInterval = 30 * time.Second
	DefaultTTL      = 2 * time.Minute
	// MemoryMBPerCPU sizes a host's memory from its CPU count.
	MemoryMBPerCPU = 512
)

// Daemon is what the giis and gris commands share: the flags both take,
// each declared once here, and the one-node grid they serve from. A
// daemon's grid listens on a fixed TCP address, runs on the wall clock,
// loads its keys and trust from files, and with -obs-addr serves
// metrics, traces and health checks over HTTP.
type Daemon struct {
	// VO, Interval and TTL shape the node's registrations; a GIIS also
	// admits only registrations naming VO.
	VO            string
	Interval, TTL time.Duration
	// Keys is the node's GSI identity, loaded by Grid from -keys.
	Keys *gsi.KeyPair
	// Persist is the node's durability (-data-dir, -wal-sync,
	// -snapshot-every, and a GIIS's -recovery-grace); Grid resolves the
	// sync mode.
	Persist persist.Options

	role                             string // "giis" or "gris", for log lines
	listen, keyFile, anchor, walSync string
	obsAddr                          string
	obsSlow                          time.Duration
	overload                         ldap.OverloadConfig

	// Set by Grid when -obs-addr is.
	tracer  *obs.Tracer
	handler *obs.Handler
}

// NewDaemon declares the shared flags on fs; listen is the default LDAP
// listen address.
func NewDaemon(fs *flag.FlagSet, role, listen string) *Daemon {
	d := &Daemon{role: role}
	fs.StringVar(&d.listen, "listen", listen, "LDAP listen address")
	fs.StringVar(&d.VO, "vo", "", "VO name carried by this node's registrations (a GIIS also admits only that VO)")
	fs.DurationVar(&d.Interval, "interval", DefaultInterval, "registration refresh interval")
	fs.DurationVar(&d.TTL, "ttl", DefaultTTL, "registration TTL")
	fs.StringVar(&d.keyFile, "keys", "", "GSI key file for this service (see gridproxy); enables SASL/GSI binds (and a GIIS's -auth-children, -require-signed)")
	fs.StringVar(&d.anchor, "anchor", "", "trust anchor file (required with -keys)")
	fs.StringVar(&d.obsAddr, "obs-addr", "", "HTTP introspection listen address (/metrics, /debug/traces, /healthz); empty disables observability. A GIIS serves its registrations and caches over GRIP under cn=monitor,<suffix>")
	fs.DurationVar(&d.obsSlow, "obs-slow", 100*time.Millisecond, "slow-query log threshold (0 disables the slow ring)")
	fs.StringVar(&d.Persist.Dir, "data-dir", "", "durability: data directory for the WAL (a GIIS logs its registrations, a GRIS its provider rounds); empty disables persistence")
	fs.StringVar(&d.walSync, "wal-sync", "interval", "durability: WAL fsync policy: always | interval | none")
	fs.DurationVar(&d.Persist.SnapshotEvery, "snapshot-every", 5*time.Minute, "durability: background snapshot cadence (0 disables)")
	fs.IntVar(&d.overload.MaxWorkers, "max-workers", 0, "overload control: max concurrently dispatched operations (0 disables admission control)")
	fs.IntVar(&d.overload.MaxQueue, "max-queue", 0, "overload control: ops queued behind the worker set before shedding unavailable")
	fs.DurationVar(&d.overload.QueueBudget, "queue-budget", 0, "overload control: shed busy when projected queue wait exceeds this")
	fs.Float64Var(&d.overload.ClientRate, "client-rate", 0, "overload control: per-client admitted ops/second (0 disables throttling)")
	fs.IntVar(&d.overload.ClientBurst, "client-burst", 0, "overload control: per-client token-bucket burst (0 defaults to the rate)")
	fs.IntVar(&d.overload.MaxConns, "max-conns", 0, "overload control: max concurrently served connections (0 unlimited)")
	return d
}

// Grid checks the parsed flags and returns the daemon's one-node grid.
func (d *Daemon) Grid() (*Grid, error) {
	g := &Grid{Clock: softstate.RealClock{}, daemon: d}
	if d.Persist.Dir != "" {
		mode, err := persist.ParseSyncMode(d.walSync)
		if err != nil {
			return nil, err
		}
		d.Persist.Sync = mode
	}
	if d.keyFile != "" {
		if d.anchor == "" {
			return nil, errors.New("-keys requires -anchor")
		}
		var err error
		if d.Keys, err = gsi.LoadKeyPair(d.keyFile); err != nil {
			return nil, err
		}
		if g.Trust, err = gsi.LoadAnchors(d.anchor); err != nil {
			return nil, err
		}
		d.logf("GSI enabled as %q", d.Keys.Credential.Subject)
	}
	if d.obsAddr != "" {
		g.obs = obs.NewRegistry()
		d.tracer = obs.NewTracer(g.Clock, d.obsSlow)
		d.tracer.SlowLog = func(t *obs.TraceExport) {
			d.logf("slow query trace=%s op=%s peer=%s took=%v", t.ID, t.Op, t.Peer, time.Duration(t.DurNs))
		}
		d.handler = obs.NewHandler(g.obs, d.tracer)
	}
	return g, nil
}

// Run serves the introspection endpoint, if any, and blocks until an
// interrupt, then closes the endpoint and the grid.
func (d *Daemon) Run(g *Grid) {
	if d.handler != nil {
		if l, err := net.Listen("tcp", d.obsAddr); err != nil {
			d.logf("obs listener: %v", err)
		} else {
			d.logf("observability on http://%s", d.obsAddr)
			hs := &http.Server{Handler: d.handler}
			defer hs.Close()
			go hs.Serve(l) // returns when Close closes l
		}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	d.logf("shutting down")
	g.Close()
}

// logf logs on a daemon's grid; other grids stay quiet.
func (d *Daemon) logf(format string, args ...any) {
	if d != nil {
		log.Printf(d.role+": "+format, args...)
	}
}

// serve applies the daemon's overload control and observability to a
// node's LDAP server, and points the root-DSE health check at the node.
func (d *Daemon) serve(srv *ldap.Server, url ldap.URL) {
	srv.ErrorLog, srv.Tracer, srv.Overload = log.Default(), d.tracer, d.overload
	d.handler.AddHealthCheck("ldap-anonymous", ldap.HealthCheck{Addr: url.Address()}.Probe)
}

// advertised renders a listen address as a dialable one: ":2135" becomes
// "127.0.0.1:2135", so registrations carry a URL others can reach.
func advertised(listen string) string {
	if len(listen) > 0 && listen[0] == ':' {
		return "127.0.0.1" + listen
	}
	return listen
}
