// Package services implements a specialized higher-level service of §5.2
// and §6 as a library component over GRIP/GRRP: a directory "designed to
// locate idle multicomputers" that keeps careful track of changing load to
// maximize accuracy while minimizing query traffic. (The §1 troubleshooter
// is examples/monitor.)
package services

import (
	"context"
	"sort"
	"sync"
	"time"

	"mds2/internal/grip"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// IdleHost is one machine the tracker currently classifies as idle.
type IdleHost struct {
	DN       ldap.DN
	Name     string
	CPUCount int64
	FreeCPUs int64
	Load5    float64
	// ObservedAt is when the classification was last confirmed.
	ObservedAt time.Time
}

// IdleTrackerConfig assembles an IdleTracker.
type IdleTrackerConfig struct {
	// Directory connects to the VO aggregate directory used for
	// membership discovery.
	Directory *grip.Client
	// Base is the VO namespace root to search.
	Base ldap.DN
	// ConnectProvider opens a GRIP client to a provider URL for direct
	// enquiry (the specialized directory pulls detail straight from
	// authoritative sources).
	ConnectProvider func(url ldap.URL) (*grip.Client, error)
	// Clock paces refresh; nil means wall clock.
	Clock softstate.Clock
	// IdleBelow classifies a machine idle when its utilization
	// (load5 / cpucount) is below this fraction (default 0.5).
	IdleBelow float64
	// MinCPUs ignores machines smaller than this (default 8 — it tracks
	// *multicomputers*).
	MinCPUs int64
	// BusyRefresh and IdleRefresh set the adaptive polling cadence: hosts
	// near the idle boundary are sampled faster than comfortably idle or
	// hopelessly busy ones (§5.2's "careful track of changing patterns of
	// multicomputer load ... while minimizing query traffic").
	BusyRefresh time.Duration
	IdleRefresh time.Duration
}

// IdleTracker is the §5.2 specialized aggregate directory: it discovers VO
// members through the standard hierarchy, then maintains its own
// load-indexed view with an adaptive update strategy.
type IdleTracker struct {
	cfg IdleTrackerConfig

	mu    sync.Mutex
	hosts map[string]*trackedHost // normalized DN -> state

	// Queries counts provider enquiries issued (the cost being minimized).
	Queries obs.Counter
}

type trackedHost struct {
	dn       ldap.DN
	name     string
	url      ldap.URL
	cpuCount int64

	freeCPUs  int64
	load5     float64
	idle      bool
	checkedAt time.Time
	nextCheck time.Time
}

// NewIdleTracker builds a tracker.
func NewIdleTracker(cfg IdleTrackerConfig) *IdleTracker {
	if cfg.Clock == nil {
		cfg.Clock = softstate.RealClock{}
	}
	if cfg.IdleBelow == 0 {
		cfg.IdleBelow = 0.5
	}
	if cfg.MinCPUs == 0 {
		cfg.MinCPUs = 8
	}
	if cfg.BusyRefresh == 0 {
		cfg.BusyRefresh = 30 * time.Second
	}
	if cfg.IdleRefresh == 0 {
		cfg.IdleRefresh = 5 * time.Minute
	}
	return &IdleTracker{cfg: cfg, hosts: map[string]*trackedHost{}}
}

// Discover refreshes VO membership from the aggregate directory: it reads
// the name index (no data chaining) and records candidate multicomputers.
func (t *IdleTracker) Discover() error {
	// The name index lists each registered provider with its namespace.
	services, err := t.cfg.Directory.Search(t.cfg.Base, "(&(objectclass=mdsservice)(mdstype=gris))")
	if err != nil {
		return err
	}
	now := t.cfg.Clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range services {
		urlStr := s.First("url")
		// The provider's own namespace (not the directory's grafted view)
		// is what direct enquiries must be rooted at.
		suffixStr := s.First("providersuffix")
		if suffixStr == "" {
			suffixStr = s.First("suffix")
		}
		if urlStr == "" || suffixStr == "" {
			continue
		}
		url, err := ldap.ParseURL(urlStr)
		if err != nil {
			continue
		}
		suffix, err := ldap.ParseDN(suffixStr)
		if err != nil {
			continue
		}
		key := suffix.Normalize()
		if _, known := t.hosts[key]; !known {
			t.hosts[key] = &trackedHost{dn: suffix, url: url, nextCheck: now}
		}
	}
	return nil
}

// Refresh polls the providers whose adaptive deadline has arrived,
// reclassifying them. It returns how many providers were queried.
func (t *IdleTracker) Refresh() int {
	now := t.cfg.Clock.Now()
	t.mu.Lock()
	var due []*trackedHost
	for _, h := range t.hosts {
		if !h.nextCheck.After(now) {
			due = append(due, h)
		}
	}
	t.mu.Unlock()

	for _, h := range due {
		t.refreshHost(h, now)
	}
	return len(due)
}

func (t *IdleTracker) refreshHost(h *trackedHost, now time.Time) {
	c, err := t.cfg.ConnectProvider(h.url)
	if err != nil {
		t.mu.Lock()
		h.idle = false
		h.nextCheck = now.Add(t.cfg.BusyRefresh)
		t.mu.Unlock()
		return
	}
	defer c.Close()
	t.Queries.Inc()
	entries, err := c.Search(h.dn, "(|(objectclass=computer)(objectclass=loadaverage))")
	if err != nil {
		t.mu.Lock()
		h.idle = false
		h.nextCheck = now.Add(t.cfg.BusyRefresh)
		t.mu.Unlock()
		return
	}
	var load float64
	var free, cpus int64
	var name string
	for _, e := range entries {
		if e.IsA("computer") {
			cpus, _ = e.Int("cpucount")
			name = e.First("hn")
		}
		if e.IsA("loadaverage") {
			load, _ = e.Float("load5")
			free, _ = e.Int("freecpus")
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.name = name
	h.cpuCount = cpus
	h.load5 = load
	h.freeCPUs = free
	h.checkedAt = now
	utilization := load
	if cpus > 0 {
		utilization = load / float64(cpus)
	}
	h.idle = cpus >= t.cfg.MinCPUs && utilization < t.cfg.IdleBelow
	// Adaptive cadence: comfortably idle machines are re-confirmed lazily;
	// busy or boundary machines are watched closely so the index stays
	// accurate exactly where it changes.
	if h.idle && utilization < t.cfg.IdleBelow/2 {
		h.nextCheck = now.Add(t.cfg.IdleRefresh)
	} else {
		h.nextCheck = now.Add(t.cfg.BusyRefresh)
	}
}

// Idle returns the current idle multicomputer index, largest first.
func (t *IdleTracker) Idle() []IdleHost {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []IdleHost
	for _, h := range t.hosts {
		if !h.idle {
			continue
		}
		out = append(out, IdleHost{
			DN: h.dn, Name: h.name, CPUCount: h.cpuCount,
			FreeCPUs: h.freeCPUs, Load5: h.load5, ObservedAt: h.checkedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FreeCPUs != out[j].FreeCPUs {
			return out[i].FreeCPUs > out[j].FreeCPUs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Tracked returns how many providers the tracker watches.
func (t *IdleTracker) Tracked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.hosts)
}

// Run drives Discover/Refresh until ctx is cancelled, pacing on the clock.
func (t *IdleTracker) Run(ctx context.Context, discoverEvery time.Duration) {
	lastDiscover := time.Time{}
	for {
		now := t.cfg.Clock.Now()
		if now.Sub(lastDiscover) >= discoverEvery {
			_ = t.Discover() // transient directory failures retry next round
			lastDiscover = now
		}
		t.Refresh()
		select {
		case <-ctx.Done():
			return
		case <-t.cfg.Clock.After(t.cfg.BusyRefresh):
		}
	}
}
