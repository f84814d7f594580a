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
	"time"

	"mds2/internal/core"
	"mds2/internal/giis"
	"mds2/internal/qcache"
)

func main() {
	d := core.NewDaemon(flag.CommandLine, "giis", ":2136")
	var sc giis.StrategyConfig
	var (
		name     = flag.String("name", "giis", "directory name")
		suffix   = flag.String("suffix", "vo=grid", "namespace suffix")
		strategy = flag.String("strategy", "chain", "search strategy: "+giis.StrategyNames())
		parent   = flag.String("parent", "", "parent GIIS address to register with")
		authKids = flag.Bool("auth-children", false, "authenticate to providers when chaining")
		signed   = flag.Bool("require-signed", false, "refuse unsigned registrations")
		qcOn     = flag.Bool("query-cache", false, "cache chained query results keyed by (child, base, scope, filter, attrs)")
		qcTTL    = flag.Duration("query-cache-ttl", qcache.DefaultTTL, "query cache TTL ceiling (results also expire with the child registration)")
		qcMax    = flag.Int("query-cache-max", qcache.DefaultMax, "query cache capacity in result sets")
	)
	flag.DurationVar(&d.Persist.RecoveryGrace, "recovery-grace", 2*time.Minute, "durability: grace window granted to recovered registrations before soft state purges them")
	flag.StringVar(&sc.Ring, "shard-ring", "", "sharded strategy: ring members as id=url,id=url,...")
	flag.StringVar(&sc.ShardID, "shard-id", "", "sharded strategy: this node's member ID in -shard-ring")
	flag.IntVar(&sc.Replicas, "replicas", 2, "sharded strategy: owners per registration (K)")
	flag.StringVar(&sc.ShardMode, "shard-mode", "proxy", "sharded strategy: proxy | referral")
	flag.DurationVar(&sc.CacheTTL, "cache-ttl", giis.DefaultCacheTTL, "freshness of the cache strategy's subtree index and of every Bloom summary (bloom's per child, sharded's per peer)")
	flag.IntVar(&sc.Fanout.MaxFanout, "max-fanout", giis.DefaultMaxFanout, "every strategy that fetches (chain, cache, bloom, sharded): max concurrent chained searches")
	flag.DurationVar(&sc.Fanout.HedgeDeadline, "hedge", 0, "every strategy that fetches (chain, cache, bloom, sharded): return partial results after this deadline (0 = wait for all children)")
	flag.Parse()

	if sc.Fanout.MaxFanout < 1 {
		log.Fatalf("giis: -max-fanout must be >= 1, got %d", sc.Fanout.MaxFanout)
	}
	if sc.Fanout.HedgeDeadline < 0 {
		log.Fatalf("giis: -hedge must be >= 0, got %v", sc.Fanout.HedgeDeadline)
	}
	strat, err := giis.NewStrategy(*strategy, sc)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := d.Grid()
	if err != nil {
		log.Fatalf("giis: %v", err)
	}
	node, err := grid.AddDirectory(*name, core.DirectoryOptions{
		Suffix:        *suffix,
		Strategy:      strat,
		AcceptVO:      d.VO,
		RequireSigned: *signed,
		AuthChildren:  *authKids,
		Keys:          d.Keys,
		QueryCache:    *qcOn,
		QueryCacheTTL: *qcTTL,
		QueryCacheMax: *qcMax,
		Persist:       d.Persist,
	})
	if err != nil {
		log.Fatalf("giis: %v", err)
	}
	if *parent != "" {
		node.RegisterAt(*parent, d.VO, d.Interval, d.TTL)
		log.Printf("giis: registering with parent %s", *parent)
	}
	log.Printf("giis: %s serving %q on %s (strategy %s)", *name, node.GIIS.Suffix(), node.URL, strat.Name())
	d.Run(grid)
}
