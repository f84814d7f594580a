// Command giis runs a standalone Grid Index Information Service: an
// aggregate directory accepting GRRP registrations (carried as LDAP add
// operations, the MDS-2.1 binding) and answering GRIP searches with a
// selectable strategy. It can register itself with a parent directory to
// form a hierarchy.
//
// Example:
//
//	giis -name giis.vo -suffix vo=alliance -listen :2136 -strategy chain
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"mds2/internal/giis"
	"mds2/internal/grrp"
	"mds2/internal/gsi"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/shard"
	"mds2/internal/softstate"
)

func main() {
	var (
		name     = flag.String("name", "giis", "directory name")
		suffix   = flag.String("suffix", "vo=grid", "namespace suffix")
		listen   = flag.String("listen", ":2136", "LDAP listen address")
		strategy = flag.String("strategy", "chain", "search strategy: chain | cache | referral | bloom | sharded")
		ringSpec = flag.String("shard-ring", "", "sharded strategy: ring members as id=url,id=url,...")
		shardID  = flag.String("shard-id", "", "sharded strategy: this node's member ID in -shard-ring")
		replicas = flag.Int("replicas", 2, "sharded strategy: owners per registration (K)")
		shardMod = flag.String("shard-mode", "proxy", "sharded strategy: proxy | referral")
		cacheTTL = flag.Duration("cache-ttl", 30*time.Second, "index freshness for cache/bloom strategies")
		fanout   = flag.Int("max-fanout", giis.DefaultMaxFanout, "every chaining strategy (chain, bloom, sharded): max concurrent chained searches")
		hedge    = flag.Duration("hedge", 0, "every chaining strategy (chain, bloom, sharded): return partial results after this deadline (0 = wait for all children)")
		parent   = flag.String("parent", "", "parent GIIS address to register with")
		vo       = flag.String("vo", "", "VO name for admission and upward registration")
		interval = flag.Duration("interval", 30*time.Second, "upward registration interval")
		ttl      = flag.Duration("ttl", 2*time.Minute, "upward registration TTL")
		keysPath = flag.String("keys", "", "GSI key file (see gridproxy); enables SASL binds and -auth-children")
		anchor   = flag.String("anchor", "", "trust anchor file (required with -keys)")
		authKids = flag.Bool("auth-children", false, "authenticate to providers when chaining")
		signed   = flag.Bool("require-signed", false, "refuse unsigned registrations")
		obsAddr  = flag.String("obs-addr", "", "HTTP introspection listen address (/metrics, /debug/traces, /debug/registry, /debug/qcache, /healthz); empty disables observability")
		obsSlow  = flag.Duration("obs-slow", 100*time.Millisecond, "slow-query log threshold (0 disables the slow ring)")
		qcOn     = flag.Bool("query-cache", false, "cache chained query results keyed by (child, base, scope, filter, attrs)")
		qcTTL    = flag.Duration("query-cache-ttl", 15*time.Second, "query cache TTL ceiling (results also expire with the child registration)")
		qcMax    = flag.Int("query-cache-max", 4096, "query cache capacity in result sets")

		dataDir   = flag.String("data-dir", "", "durability: data directory for the WAL-backed registration log (empty disables persistence)")
		walSync   = flag.String("wal-sync", "interval", "durability: WAL fsync policy: always | interval | none")
		snapEvery = flag.Duration("snapshot-every", 5*time.Minute, "durability: background snapshot cadence (0 disables)")
		recGrace  = flag.Duration("recovery-grace", 2*time.Minute, "durability: grace window granted to recovered registrations before soft state purges them")

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

	dn, err := ldap.ParseDN(*suffix)
	if err != nil {
		log.Fatalf("giis: bad suffix: %v", err)
	}
	if *fanout < 1 {
		log.Fatalf("giis: -max-fanout must be >= 1, got %d", *fanout)
	}
	if *hedge < 0 {
		log.Fatalf("giis: -hedge must be >= 0, got %v", *hedge)
	}
	fan := giis.Fanout{MaxFanout: *fanout, HedgeDeadline: *hedge}
	var strat giis.Strategy
	switch *strategy {
	case "chain":
		strat = &giis.Chaining{Fanout: fan}
	case "cache":
		strat = giis.NewCachedIndex(*cacheTTL)
	case "referral":
		strat = giis.NewReferral()
	case "bloom":
		routed := giis.NewBloomRouted(*cacheTTL, 1<<16)
		routed.Fanout = fan
		strat = routed
	case "sharded":
		if *ringSpec == "" || *shardID == "" {
			log.Fatal("giis: -strategy sharded requires -shard-ring and -shard-id")
		}
		members, err := shard.ParseRing(*ringSpec)
		if err != nil {
			log.Fatalf("giis: %v", err)
		}
		ring := shard.NewRing(members, 0)
		if _, ok := ring.Member(*shardID); !ok {
			log.Fatalf("giis: -shard-id %q is not in -shard-ring", *shardID)
		}
		sh := giis.NewSharded(ring, *shardID, *replicas)
		switch *shardMod {
		case "proxy":
			sh.Mode = giis.ShardProxy
		case "referral":
			sh.Mode = giis.ShardReferral
		default:
			log.Fatalf("giis: unknown -shard-mode %q", *shardMod)
		}
		sh.Fanout = fan
		sh.SummaryTTL = *cacheTTL
		strat = sh
	default:
		log.Fatalf("giis: unknown strategy %q", *strategy)
	}

	selfURL, err := ldap.ParseURL("ldap://" + advertised(*listen))
	if err != nil {
		log.Fatalf("giis: %v", err)
	}
	cfg := giis.Config{
		Name:          *name,
		Suffix:        dn,
		SelfURL:       selfURL,
		Strategy:      strat,
		AcceptVO:      *vo,
		QueryCache:    *qcOn,
		QueryCacheTTL: *qcTTL,
		QueryCacheMax: *qcMax,
	}
	var obsReg *obs.Registry
	var tracer *obs.Tracer
	if *obsAddr != "" {
		obsReg = obs.NewRegistry()
		tracer = obs.NewTracer(softstate.RealClock{}, *obsSlow)
		tracer.SlowLog = func(t *obs.TraceExport) {
			log.Printf("giis: slow query trace=%s op=%s peer=%s took=%v",
				t.ID, t.Op, t.Peer, time.Duration(t.DurNs))
		}
		cfg.Obs = obsReg
	}
	if *keysPath != "" {
		if *anchor == "" {
			log.Fatal("giis: -keys requires -anchor")
		}
		keys, err := gsi.LoadKeyPair(*keysPath)
		if err != nil {
			log.Fatalf("giis: %v", err)
		}
		trust, err := gsi.LoadAnchors(*anchor)
		if err != nil {
			log.Fatalf("giis: %v", err)
		}
		cfg.Keys = keys
		cfg.Trust = trust
		cfg.AuthChildren = *authKids
		cfg.RequireSignedRegistrations = *signed
		log.Printf("giis: GSI enabled as %q", keys.Credential.Subject)
	} else if *authKids || *signed {
		log.Fatal("giis: -auth-children and -require-signed need -keys/-anchor")
	}
	server := giis.New(cfg)
	defer server.Close()

	if *dataDir != "" {
		mode, err := persist.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("giis: %v", err)
		}
		pm, err := persist.Open(persist.Options{
			Dir:           *dataDir,
			Sync:          mode,
			SnapshotEvery: *snapEvery,
			RecoveryGrace: *recGrace,
			Codec: persist.PayloadCodec{
				Encode: grrp.EncodePayload,
				Decode: grrp.DecodePayload,
			},
			Obs:      obsReg,
			ErrorLog: log.Default(),
		})
		if err != nil {
			log.Fatalf("giis: %v", err)
		}
		reg := server.Receiver().Registry
		if pm.HasState() {
			stats, err := pm.Recover(nil, reg)
			if err != nil {
				log.Fatalf("giis: recovering %s: %v", *dataDir, err)
			}
			log.Printf("giis: recovered %d registrations from %s in %v (replayed %d records, grace %v)",
				stats.Registrations, *dataDir, stats.Duration, stats.RecordsReplayed, *recGrace)
		}
		if err := pm.Attach(nil, reg); err != nil {
			log.Fatalf("giis: %v", err)
		}
		defer pm.Close()
	}

	if *parent != "" {
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
		registrar.Start(server.SelfRegistration(*parent, *vo, *interval, *ttl))
		log.Printf("giis: registering with parent %s", *parent)
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
				log.Fatalf("giis: %v", err)
			}
			hc := ldap.HealthCheck{
				Addr:       advertised(*listen),
				Mode:       mode,
				Base:       *healthBase,
				Scope:      ldap.ScopeWholeSubtree,
				Filter:     *healthFilt,
				MinEntries: *healthMin,
			}
			if mode == ldap.ProbeScopedSearch && hc.Base == "" {
				hc.Base = dn.String()
			}
			h.AddHealthCheck("ldap-"+mode.String(), hc.Probe)
		}
		h.AddTable("children", server.Receiver().Registry)
		if qc := server.QueryCache(); qc != nil {
			h.AddCache("query", func() any { return qc.Debug() })
		}
		go func() {
			log.Printf("giis: observability on http://%s", *obsAddr)
			if err := http.ListenAndServe(*obsAddr, h); err != nil {
				log.Printf("giis: obs listener: %v", err)
			}
		}()
	}
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		log.Print("giis: shutting down")
		srv.Close()
	}()
	log.Printf("giis: %s serving %q on %s (strategy %s)", *name, dn, *listen, strat.Name())
	if err := srv.ListenAndServe(*listen); err != nil && err != ldap.ErrServerClosed {
		log.Fatalf("giis: %v", err)
	}
}

func advertised(listen string) string {
	if len(listen) > 0 && listen[0] == ':' {
		return "127.0.0.1" + listen
	}
	return listen
}
