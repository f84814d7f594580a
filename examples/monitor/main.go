// Monitor: the §1 troubleshooting scenario — a service that watches grid
// resources for anomalous behaviour. It combines the two delivery models
// of §6: GRIP subscriptions (push) stream load changes from each provider,
// while the GRRP registration stream doubles as an unreliable failure
// detector (§4.3) flagging providers that fall silent.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"mds2/internal/core"
	"mds2/internal/detect"
	"mds2/internal/grip"
	"mds2/internal/grrp"
	"mds2/internal/softstate"
)

func main() {
	grid, err := core.NewSimGrid(33)
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	clock := grid.SimClock()

	dir, err := grid.AddDirectory("giis.ops", core.DirectoryOptions{Suffix: "vo=ops"})
	if err != nil {
		log.Fatal(err)
	}

	const refresh, ttl = 10 * time.Second, 35 * time.Second
	var hosts []*core.HostNode
	var regs []grrp.Registration
	for i := 0; i < 3; i++ {
		h, err := grid.AddHost(fmt.Sprintf("worker%d", i), core.HostOptions{
			Org: "ops", Seed: int64(i + 1), DynamicTTL: time.Second})
		if err != nil {
			log.Fatal(err)
		}
		regs = append(regs, h.RegisterWith(dir, "ops", refresh, ttl))
		hosts = append(hosts, h)
	}
	waitFor(func() bool { return len(dir.GIIS.Children()) == 3 })

	// The failure detector consumes the same registration stream the
	// directory indexes from: tap the directory registry's transition feed.
	detector := detect.New(ttl, clock)
	dir.GIIS.Receiver().Registry.Observe(lifeSigns{detector})

	// Subscribe to every worker's load average (push mode).
	var mu sync.Mutex
	lastLoad := map[string]float64{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, h := range hosts {
		h := h
		c, err := h.Client("monitor")
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		go c.Subscribe(ctx, h.Suffix, "(objectclass=loadaverage)", false,
			func(u grip.Update) error {
				if v, ok := u.Entry.Float("load5"); ok {
					mu.Lock()
					lastLoad[h.Name] = v
					mu.Unlock()
				}
				return nil
			})
	}

	report := func(phase string) {
		fmt.Printf("--- %s\n", phase)
		detector.Check()
		mu.Lock()
		defer mu.Unlock()
		for _, h := range hosts {
			key := h.URL.String()
			status := detector.Status(key)
			load := lastLoad[h.Name]
			note := ""
			if status == detect.StatusSuspected {
				note = "  <- SUSPECTED FAILED (no registration refresh)"
			} else if load > float64(h.Host.Spec.CPUCount) {
				note = "  <- OVERLOADED"
			}
			fmt.Printf("  %-8s %-9s load5=%.2f%s\n", h.Name, status, load, note)
		}
	}

	// Healthy period: workers evolve, subscriptions deliver.
	for i := 0; i < 6; i++ {
		for _, h := range hosts {
			h.Host.Step(5 * time.Minute)
		}
		clock.Advance(5 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	report("steady state (all workers registering and reporting)")

	// worker1 crashes: its registration stream stops.
	fmt.Println("\n*** worker1 stops sending registrations (simulated crash)")
	hosts[1].Registrar().Pause(regs[1])
	for i := 0; i < 6; i++ {
		clock.Advance(10 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	report("after one TTL of silence")

	// worker1 comes back.
	fmt.Println("\n*** worker1 resumes")
	hosts[1].Registrar().Resume(regs[1])
	clock.Advance(10 * time.Second)
	waitFor(func() bool {
		detector.Check()
		return detector.Status(hosts[1].URL.String()) == detect.StatusAlive
	})
	report("after recovery")

	s := detector.Stats()
	fmt.Printf("\ndetector stats: %d observations, %d suspicions, %d recoveries\n",
		s.Observations, s.Suspicions, s.Recoveries)
}

// lifeSigns feeds registry refreshes to a failure detector. Only arrivals
// count as life signs; expiries are the registry's own conclusion, not
// evidence.
type lifeSigns struct{ d *detect.Detector }

func (l lifeSigns) JournalRegistry(recs []softstate.JournalRecord) {
	for _, rec := range recs {
		if rec.Op == softstate.JournalRefresh {
			l.d.Observe(rec.Item.Key)
		}
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
	log.Fatal("monitor: condition never settled")
}
