// Package hostinfo models the compute resources that GRIS information
// providers describe: static configuration (architecture, OS, CPU and
// memory inventory) and dynamic state (load averages, queue occupancy, free
// disk) evolving under a deterministic stochastic process. The paper's
// providers read /proc and batch schedulers; this synthetic model exercises
// the identical provider/cache/filter code paths with tunable dynamism
// (see DESIGN.md substitutions).
package hostinfo

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Spec is a host's static configuration.
type Spec struct {
	OS       string // e.g. "linux redhat 6.2", "mips irix"
	OSVer    string
	CPUType  string
	CPUCount int
	MemoryMB int
}

// FS is one simulated filesystem.
type FS struct {
	Name    string
	Path    string
	TotalMB int
	FreeMB  int
}

// Queue is one simulated batch queue.
type Queue struct {
	Name     string
	Dispatch string // "immediate" or "batch"
	MaxJobs  int
	Running  int
	Queued   int
}

// Host is a synthetic machine whose dynamic state advances via Step. The
// load process is AR(1) around a diurnally modulated mean, which yields the
// bursty-but-correlated series that make cache-TTL tradeoffs (§10.3)
// interesting.
type Host struct {
	Name string
	Spec Spec

	mu      sync.Mutex
	rng     *rand.Rand
	simTime time.Time
	load1   float64
	load5   float64
	load15  float64
	fs      []FS
	queues  []Queue

	// Process parameters.
	baseLoad float64 // long-run mean load per CPU utilization ~ baseLoad*CPUCount
	phi      float64 // AR(1) persistence
	sigma    float64 // innovation scale
	// demand is externally injected load (running applications), added to
	// the process mean.
	demand float64
}

// New creates a host with the given name, spec, and deterministic seed.
func New(name string, spec Spec, seed int64) *Host {
	h := &Host{
		Name:     name,
		Spec:     spec,
		rng:      rand.New(rand.NewSource(seed)),
		simTime:  time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC),
		baseLoad: 0.35,
		phi:      0.9,
		sigma:    0.25,
	}
	h.load1 = h.meanLoad()
	h.load5, h.load15 = h.load1, h.load1
	h.fs = []FS{
		{Name: "scratch", Path: "/disks/scratch1", TotalMB: 40960, FreeMB: 33515},
		{Name: "home", Path: "/home", TotalMB: 8192, FreeMB: 2048},
	}
	h.queues = []Queue{
		{Name: "default", Dispatch: "immediate", MaxJobs: spec.CPUCount},
		{Name: "batch", Dispatch: "batch", MaxJobs: 4 * spec.CPUCount},
	}
	return h
}

// meanLoad is the diurnal target: busier during the simulated working day,
// plus any externally injected demand.
func (h *Host) meanLoad() float64 {
	hour := float64(h.simTime.Hour()) + float64(h.simTime.Minute())/60
	diurnal := 0.5 + 0.5*math.Sin((hour-10)/24*2*math.Pi)
	return h.baseLoad*float64(h.Spec.CPUCount)*(0.4+1.2*diurnal) + h.demand
}

// SetDemand injects external load (e.g. a running application's workers)
// into the host's load process; the load averages converge toward it.
func (h *Host) SetDemand(d float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d < 0 {
		d = 0
	}
	h.demand = d
}

// Step advances the host's dynamic state by dt.
func (h *Host) Step(dt time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	steps := int(dt / time.Minute)
	if steps < 1 {
		steps = 1
	}
	for i := 0; i < steps; i++ {
		h.simTime = h.simTime.Add(time.Minute)
		mean := h.meanLoad()
		h.load1 = mean + h.phi*(h.load1-mean) + h.sigma*h.rng.NormFloat64()
		if h.load1 < 0 {
			h.load1 = 0
		}
		// Loads 5/15 as EWMAs of load1 with the classical decay constants.
		h.load5 += (h.load1 - h.load5) * (1 - math.Exp(-1.0/5))
		h.load15 += (h.load1 - h.load15) * (1 - math.Exp(-1.0/15))
		// Queue churn follows load.
		for qi := range h.queues {
			q := &h.queues[qi]
			target := int(h.load1)
			if target > q.MaxJobs {
				target = q.MaxJobs
			}
			if q.Running < target {
				q.Running++
			} else if q.Running > target {
				q.Running--
			}
			q.Queued = maxInt(0, q.Queued+h.rng.Intn(3)-1)
		}
		// Scratch space random walk, bounded.
		for fi := range h.fs {
			f := &h.fs[fi]
			f.FreeMB += h.rng.Intn(201) - 100
			if f.FreeMB < 0 {
				f.FreeMB = 0
			}
			if f.FreeMB > f.TotalMB {
				f.FreeMB = f.TotalMB
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Snapshot is an immutable view of the host's state at one instant.
type Snapshot struct {
	Name   string
	Spec   Spec
	At     time.Time
	Load1  float64
	Load5  float64
	Load15 float64
	FS     []FS
	Queues []Queue
}

// Snapshot captures current state.
func (h *Host) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Snapshot{
		Name:   h.Name,
		Spec:   h.Spec,
		At:     h.simTime,
		Load1:  h.load1,
		Load5:  h.load5,
		Load15: h.load15,
		FS:     append([]FS(nil), h.fs...),
		Queues: append([]Queue(nil), h.queues...),
	}
}

// FreeCPUs estimates idle processors from the 5-minute load.
func (s Snapshot) FreeCPUs() int {
	free := s.Spec.CPUCount - int(math.Round(s.Load5))
	if free < 0 {
		return 0
	}
	return free
}
