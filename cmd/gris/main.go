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
	"log"
	"strings"
	"time"

	"mds2/internal/core"
	"mds2/internal/hostinfo"
	"mds2/internal/nws"
)

func main() {
	d := core.NewDaemon(flag.CommandLine, "gris", ":2135")
	var (
		hostName  = flag.String("host", "hostX", "host name to publish")
		org       = flag.String("org", "grid", "organization component of the namespace")
		register  = flag.String("register", "", "GIIS address(es) to register with, comma-separated (host:port; GRRP carried as LDAP add — list every owner shard of a sharded ring)")
		cpus      = flag.Int("cpus", 4, "simulated CPU count")
		osName    = flag.String("os", "linux redhat", "simulated operating system")
		seed      = flag.Int64("seed", 1, "simulation seed")
		stepSim   = flag.Duration("step", time.Minute, "how often simulated host state advances")
		trustDir  = flag.String("trusted-dir", "", "subject granted the trusted-directory role")
		warmGrace = flag.Duration("warm-grace", 30*time.Second, "durability: how long restored provider results may serve before a live invocation is forced")
	)
	flag.Parse()

	grid, err := d.Grid()
	if err != nil {
		log.Fatalf("gris: %v", err)
	}
	opts := core.HostOptions{
		Org: *org,
		Spec: hostinfo.Spec{OS: *osName, OSVer: "6.2", CPUType: "ia32",
			CPUCount: *cpus, MemoryMB: core.MemoryMBPerCPU * *cpus},
		Seed:      *seed,
		WithNWS:   nws.NewService(),
		Keys:      d.Keys,
		Persist:   d.Persist,
		WarmGrace: *warmGrace,
	}
	if *trustDir != "" {
		opts.TrustedDirectories = []string{*trustDir}
	}
	node, err := grid.AddHost(*hostName, opts)
	if err != nil {
		log.Fatalf("gris: %v", err)
	}
	go func() {
		for range time.Tick(*stepSim) {
			node.Host.Step(*stepSim)
		}
	}()
	if *register != "" {
		targets := strings.Split(*register, ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		node.RegisterAt(targets, d.VO, d.Interval, d.TTL)
		log.Printf("gris: registering with %s every %v (ttl %v)", *register, d.Interval, d.TTL)
	}
	log.Printf("gris: serving %q on %s", node.Suffix, node.URL)
	d.Run(grid)
}
