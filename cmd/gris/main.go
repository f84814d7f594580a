// Command gris runs a standalone Grid Resource Information Service: an
// LDAP server publishing a (synthetic) host's static, dynamic, storage,
// queue, and network information, optionally sustaining a GRRP
// registration stream to an aggregate directory.
//
// Example:
//
//	gris -host hostX -org center1 -listen :2135 -register 127.0.0.1:2136 -vo alliance
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/nws"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/providers"
	"mds2/internal/softstate"
)

func main() {
	var (
		hostName = flag.String("host", "hostX", "host name to publish")
		org      = flag.String("org", "grid", "organization component of the namespace")
		listen   = flag.String("listen", ":2135", "LDAP listen address")
		register = flag.String("register", "", "GIIS address(es) to register with, comma-separated (host:port; GRRP carried as LDAP add — list every owner shard of a sharded ring)")
		vo       = flag.String("vo", "", "VO name for registrations")
		interval = flag.Duration("interval", 30*time.Second, "registration refresh interval")
		ttl      = flag.Duration("ttl", 2*time.Minute, "registration TTL")
		cpus     = flag.Int("cpus", 4, "simulated CPU count")
		osName   = flag.String("os", "linux redhat", "simulated operating system")
		seed     = flag.Int64("seed", 1, "simulation seed")
		stepSim  = flag.Duration("step", time.Minute, "how often simulated host state advances")
		keysPath = flag.String("keys", "", "GSI key file for this service (see gridproxy); enables SASL/GSI binds")
		anchor   = flag.String("anchor", "", "trust anchor file (required with -keys)")
		trustDir = flag.String("trusted-dir", "", "subject granted the trusted-directory role")
		obsAddr  = flag.String("obs-addr", "", "HTTP introspection listen address (/metrics, /debug/traces, /healthz); empty disables observability")
		obsSlow  = flag.Duration("obs-slow", 100*time.Millisecond, "slow-query log threshold (0 disables the slow ring)")

		dataDir   = flag.String("data-dir", "", "durability: data directory for the WAL-backed warm cache store (empty disables persistence)")
		walSync   = flag.String("wal-sync", "interval", "durability: WAL fsync policy: always | interval | none")
		snapEvery = flag.Duration("snapshot-every", 5*time.Minute, "durability: background snapshot cadence (0 disables)")
		warmGrace = flag.Duration("warm-grace", 30*time.Second, "durability: how long restored provider results may serve before a live invocation is forced")

		healthProbe = flag.String("health-probe", "anonymous", "healthz probe mode(s), comma-separated: anonymous | scoped-search")
		healthBase  = flag.String("health-base", "", "scoped-search probe: base DN (default: the served suffix)")
		healthFilt  = flag.String("health-filter", "(objectclass=*)", "scoped-search probe: filter")
		healthMin   = flag.Int("health-min-entries", 1, "scoped-search probe: minimum entries required")

		maxWorkers  = flag.Int("max-workers", 0, "overload control: max concurrently dispatched operations (0 disables admission control)")
		maxQueue    = flag.Int("max-queue", 0, "overload control: ops queued behind the worker set before shedding unavailable")
		queueBudget = flag.Duration("queue-budget", 0, "overload control: shed busy when projected queue wait exceeds this")
		clientRate  = flag.Float64("client-rate", 0, "overload control: per-client admitted ops/second (0 disables throttling)")
		clientBurst = flag.Int("client-burst", 0, "overload control: per-client token-bucket burst (0 defaults to the rate)")
		maxConns    = flag.Int("max-conns", 0, "overload control: max concurrently served connections (0 unlimited)")
	)
	flag.Parse()

	suffix, err := ldap.ParseDN(fmt.Sprintf("hn=%s, o=%s", *hostName, *org))
	if err != nil {
		log.Fatalf("gris: bad namespace: %v", err)
	}
	host := hostinfo.New(*hostName, hostinfo.Spec{
		OS: *osName, OSVer: "6.2", CPUType: "ia32", CPUCount: *cpus, MemoryMB: 512 * *cpus,
	}, *seed)
	go func() {
		for range time.Tick(*stepSim) {
			host.Step(*stepSim)
		}
	}()

	cfg := gris.Config{Suffix: suffix}
	var obsReg *obs.Registry
	var tracer *obs.Tracer
	if *obsAddr != "" {
		obsReg = obs.NewRegistry()
		tracer = obs.NewTracer(softstate.RealClock{}, *obsSlow)
		tracer.SlowLog = func(t *obs.TraceExport) {
			log.Printf("gris: slow query trace=%s op=%s peer=%s took=%v",
				t.ID, t.Op, t.Peer, time.Duration(t.DurNs))
		}
		cfg.Obs = obsReg
	}
	var keys *gsi.KeyPair
	if *keysPath != "" {
		if *anchor == "" {
			log.Fatal("gris: -keys requires -anchor")
		}
		var err error
		if keys, err = gsi.LoadKeyPair(*keysPath); err != nil {
			log.Fatalf("gris: %v", err)
		}
		trust, err := gsi.LoadAnchors(*anchor)
		if err != nil {
			log.Fatalf("gris: %v", err)
		}
		cfg.Keys = keys
		cfg.Trust = trust
		if *trustDir != "" {
			cfg.TrustedDirectories = []string{*trustDir}
		}
		log.Printf("gris: GSI enabled as %q", keys.Credential.Subject)
	}
	if *dataDir != "" {
		mode, err := persist.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("gris: %v", err)
		}
		warm := ldap.NewStore()
		pm, err := persist.Open(persist.Options{
			Dir:           *dataDir,
			Sync:          mode,
			SnapshotEvery: *snapEvery,
			Obs:           obsReg,
			ErrorLog:      log.Default(),
		})
		if err != nil {
			log.Fatalf("gris: %v", err)
		}
		if pm.HasState() {
			stats, err := pm.Recover(warm, nil)
			if err != nil {
				log.Fatalf("gris: recovering %s: %v", *dataDir, err)
			}
			log.Printf("gris: recovered %d warm entries from %s in %v (replayed %d records)",
				stats.Entries, *dataDir, stats.Duration, stats.RecordsReplayed)
		}
		if err := pm.Attach(warm, nil); err != nil {
			log.Fatalf("gris: %v", err)
		}
		defer pm.Close()
		cfg.WarmStore = warm
		cfg.WarmGrace = *warmGrace
	}
	server := gris.New(cfg)
	for _, b := range providers.HostBackends(host, suffix) {
		server.Register(b)
	}
	server.Register(&providers.Network{Service: nws.NewService(),
		Base: suffix.ChildAVA("net", "links")})
	if cfg.WarmStore != nil {
		if n := server.WarmRestore(); n > 0 {
			log.Printf("gris: warm cache restored with %d entries (grace %v)", n, *warmGrace)
		}
	}

	if *register != "" {
		registrar := grrp.NewRegistrar(grrp.TransportFunc(func(to string, payload []byte) error {
			m, err := grrp.Unmarshal(payload)
			if err != nil {
				return err
			}
			c, err := ldap.Dial(to)
			if err != nil {
				return err
			}
			defer c.Close()
			return c.Add(m.ToEntry())
		}), nil)
		defer registrar.StopAll()
		targets := strings.Split(*register, ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		registrar.StartFanout(grrp.Registration{
			Message: grrp.Message{
				Type:       grrp.TypeRegister,
				ServiceURL: fmt.Sprintf("ldap://%s", listenAddr(*listen)),
				MDSType:    "gris",
				VO:         *vo,
				SuffixDN:   suffix.String(),
			},
			Interval: *interval,
			TTL:      *ttl,
			Keys:     keys, // nil means unsigned registrations
		}, targets)
		log.Printf("gris: registering with %s every %v (ttl %v)", *register, *interval, *ttl)
	}

	srv := ldap.NewServer(server)
	srv.ErrorLog = log.Default()
	srv.Obs = obsReg
	srv.Tracer = tracer
	srv.Overload = ldap.OverloadConfig{
		MaxWorkers:  *maxWorkers,
		MaxQueue:    *maxQueue,
		QueueBudget: *queueBudget,
		ClientRate:  *clientRate,
		ClientBurst: *clientBurst,
		MaxConns:    *maxConns,
	}
	if *obsAddr != "" {
		h := obs.NewHandler(obsReg, tracer, softstate.RealClock{})
		for _, spec := range strings.Split(*healthProbe, ",") {
			mode, err := ldap.ParseProbeMode(spec)
			if err != nil {
				log.Fatalf("gris: %v", err)
			}
			hc := ldap.HealthCheck{
				Addr:       listenAddr(*listen),
				Mode:       mode,
				Base:       *healthBase,
				Scope:      ldap.ScopeWholeSubtree,
				Filter:     *healthFilt,
				MinEntries: *healthMin,
			}
			if mode == ldap.ProbeScopedSearch && hc.Base == "" {
				hc.Base = suffix.String()
			}
			h.AddHealthCheck("ldap-"+mode.String(), hc.Probe)
		}
		go func() {
			log.Printf("gris: observability on http://%s", *obsAddr)
			if err := http.ListenAndServe(*obsAddr, h); err != nil {
				log.Printf("gris: obs listener: %v", err)
			}
		}()
	}
	go handleSignals(srv)
	log.Printf("gris: serving %q on %s", suffix, *listen)
	if err := srv.ListenAndServe(*listen); err != nil && err != ldap.ErrServerClosed {
		log.Fatalf("gris: %v", err)
	}
}

// listenAddr renders the advertised address: ":2135" becomes
// "127.0.0.1:2135" so registrations carry a dialable URL.
func listenAddr(listen string) string {
	if len(listen) > 0 && listen[0] == ':' {
		return "127.0.0.1" + listen
	}
	return listen
}

func handleSignals(srv *ldap.Server) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	log.Print("gris: shutting down")
	srv.Close()
}
