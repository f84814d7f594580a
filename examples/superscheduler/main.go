// Superscheduler: the §1 scenario — route a computational request to the
// "best" available computer in a grid of heterogeneous machines, where
// "best" combines architecture, installed capacity, and instantaneous
// load. The broker discovers candidates through the VO directory, refines
// with fresh provider data, and finally uses the matchmaker extension for a
// ranked, join-like decision that the plain filter language cannot express.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"mds2/internal/core"
	"mds2/internal/giis"
	"mds2/internal/hostinfo"
	"mds2/internal/ldap"
	"mds2/internal/ldap/ldif"
)

func main() {
	grid, err := core.NewSimGrid(7)
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()

	index, err := giis.NewStrategy("cache", giis.StrategyConfig{CacheTTL: 30 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := grid.AddDirectory("giis.vo", core.DirectoryOptions{
		Suffix:   "vo=compute",
		Strategy: index,
		Extensions: map[string]giis.Extension{
			core.OIDMatchmake: core.MatchmakeExtension(index),
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	machines := []struct {
		name string
		spec hostinfo.Spec
		seed int64
	}{
		{"cluster-a", hostinfo.Spec{OS: "linux redhat", OSVer: "6.2", CPUType: "ia32", CPUCount: 32, MemoryMB: 8192}, 11},
		{"cluster-b", hostinfo.Spec{OS: "linux redhat", OSVer: "7.0", CPUType: "ia32", CPUCount: 16, MemoryMB: 4096}, 22},
		{"bigiron", hostinfo.Spec{OS: "mips irix", OSVer: "6.5", CPUType: "mips", CPUCount: 64, MemoryMB: 16384}, 33},
		{"desktop", hostinfo.Spec{OS: "linux redhat", OSVer: "6.2", CPUType: "ia32", CPUCount: 2, MemoryMB: 512}, 44},
	}
	hosts := map[string]*core.HostNode{}
	for _, m := range machines {
		h, err := grid.AddHost(m.name, core.HostOptions{Org: "vo", Spec: m.spec, Seed: m.seed})
		if err != nil {
			log.Fatal(err)
		}
		// Let each machine accumulate distinct load history.
		h.Host.Step(time.Duration(m.seed) * 13 * time.Minute)
		h.RegisterWith(dir, "compute", 10*time.Second, time.Minute)
		hosts[m.name] = h
	}
	waitFor(func() bool { return len(dir.GIIS.Children()) == len(machines) })

	broker, err := dir.Client("broker")
	if err != nil {
		log.Fatal(err)
	}
	defer broker.Close()

	// Step 1 — discovery: Linux machines with enough CPUs for the job.
	const needCPUs = 8
	candidates, err := broker.Search(ldap.MustParseDN("vo=compute"),
		fmt.Sprintf("(&(objectclass=computer)(system=linux*)(cpucount>=%d))", needCPUs))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1: %d candidates satisfy static requirements (linux, >=%d cpus)\n",
		len(candidates), needCPUs)

	// Step 2 — refinement with fresh dynamic data from each authoritative
	// provider (the discovery/enquiry split of §4.1).
	type scored struct {
		name string
		free int64
	}
	var ranked []scored
	for _, c := range candidates {
		h := hosts[c.First("hn")]
		direct, err := h.Client("broker")
		if err != nil {
			continue
		}
		entries, err := direct.Search(h.Suffix, "(objectclass=loadaverage)")
		direct.Close()
		if err != nil || len(entries) == 0 {
			continue
		}
		free, _ := entries[0].Int("freecpus")
		ranked = append(ranked, scored{c.First("hn"), free})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].free > ranked[j].free })
	fmt.Println("step 2: fresh load from authoritative providers:")
	for _, r := range ranked {
		fmt.Printf("  %-10s freecpus=%d\n", r.name, r.free)
	}
	if len(ranked) > 0 {
		fmt.Printf("=> schedule on %s\n\n", ranked[0].name)
	}

	// Step 3 — the same decision as one matchmaking request (§5.3).
	// Warm the index, then ask for a ranked match.
	if _, err := broker.Search(ldap.MustParseDN("vo=compute"), "(objectclass=computer)"); err != nil {
		log.Fatal(err)
	}
	req := fmt.Sprintf("requirements: other.cpucount >= %d && other.load5 < other.cpucount\nrank: other.freecpus\n", needCPUs)
	out, err := broker.Extended(core.OIDMatchmake, []byte(req))
	if err != nil {
		log.Fatal(err)
	}
	matches, err := ldif.ParseString(string(out))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("step 3: one matchmaking request returns the ranked schedule:")
	for i, m := range matches {
		fmt.Printf("  %d. %s\n", i+1, m.First("hn"))
	}
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatal("superscheduler: condition never settled")
}
