package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mds2/internal/giis"
	"mds2/internal/gris"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// The server process (`bench -serve`) is the system under test: it builds
// whatever tiers the driver describes, each on its own loopback TCP
// listener, and otherwise only answers the wire. The control pipe (JSON
// lines on stdin/stdout) carries the topology in and the process's own cost
// accounting out; no workload name, seed or operation ever crosses it.

type ctlRequest struct {
	Cmd   string     `json:"cmd"` // build | gc | stats | quit
	Nodes []nodeSpec `json:"nodes,omitempty"`
	// Trace sets ldap.Server.Tracer on every tier (the traced run).
	Trace bool `json:"trace,omitempty"`
}

type ctlReply struct {
	Err   string      `json:"err,omitempty"`
	Addrs []string    `json:"addrs,omitempty"`
	Stats *childStats `json:"stats,omitempty"`
}

// childStats is the server process's own view of what it has spent.
type childStats struct {
	CPUNs    int64            `json:"cpu_ns"`   // user+sys, getrusage
	Mallocs  uint64           `json:"mallocs"`  // runtime.MemStats.Mallocs
	PeakKB   int64            `json:"peak_kb"`  // VmHWM
	Counters map[string]int64 `json:"counters"` // public counters summed over tiers
	Procs    int              `json:"gomaxprocs"`
}

// corpusBackend serves a fixed entry set: the information provider itself
// is free, so what is measured is the GRIS around it.
type corpusBackend struct {
	name    string
	suffix  ldap.DN
	entries []*ldap.Entry
	ttl     time.Duration
}

func (b *corpusBackend) Name() string                               { return b.name }
func (b *corpusBackend) Suffix() ldap.DN                            { return b.suffix }
func (b *corpusBackend) Attributes() []string                       { return nil }
func (b *corpusBackend) CacheTTL() time.Duration                    { return b.ttl }
func (b *corpusBackend) Entries(*gris.Query) ([]*ldap.Entry, error) { return b.entries, nil }

func (e entrySpec) entry() (*ldap.Entry, error) {
	dn, err := ldap.ParseDN(e.DN)
	if err != nil {
		return nil, err
	}
	out := ldap.NewEntry(dn)
	for _, a := range e.Attrs {
		if len(a) < 2 {
			return nil, fmt.Errorf("entry %s: attribute without values", e.DN)
		}
		out.Add(a[0], a[1:]...)
	}
	return out, nil
}

// tier is one running server of the topology.
type tier struct {
	srv   *ldap.Server
	gris  *gris.Server
	giis  *giis.Server
	dials *atomic.Int64
}

func startTier(n nodeSpec, tracer *obs.Tracer) (*tier, string, error) {
	suffix, err := ldap.ParseDN(n.Suffix)
	if err != nil {
		return nil, "", err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := l.Addr().String()
	t := &tier{}
	var h ldap.Handler
	switch n.Kind {
	case "gris":
		entries := make([]*ldap.Entry, 0, len(n.Entries))
		for _, es := range n.Entries {
			e, err := es.entry()
			if err != nil {
				l.Close()
				return nil, "", err
			}
			entries = append(entries, e)
		}
		t.gris = gris.New(gris.Config{Suffix: suffix})
		t.gris.Register(&corpusBackend{name: "corpus", suffix: suffix, entries: entries,
			ttl: time.Duration(n.CacheTTLSec) * time.Second})
		h = t.gris
	case "giis":
		t.dials = new(atomic.Int64)
		dials := t.dials
		t.giis = giis.New(giis.Config{
			Name:    n.Name,
			Suffix:  suffix,
			SelfURL: ldap.URL{Scheme: "ldap", Host: "127.0.0.1", Port: addr[strings.LastIndexByte(addr, ':')+1:]},
			Dial: func(u ldap.URL) (*ldap.Client, error) {
				dials.Add(1)
				return giis.TCPDialer(u)
			},
			QueryCache:    n.QueryCache,
			QueryCacheTTL: time.Duration(n.QueryCacheTTLMs) * time.Millisecond,
			QueryCacheMax: n.QueryCacheMax,
		})
		h = t.giis
	default:
		l.Close()
		return nil, "", fmt.Errorf("node %s: unknown kind %q", n.Name, n.Kind)
	}
	t.srv = ldap.NewServer(h)
	t.srv.Tracer = tracer
	go t.srv.Serve(l) // returns when stop closes the server
	return t, addr, nil
}

func (t *tier) stop() {
	t.srv.Close()
	if t.giis != nil {
		t.giis.Close()
	}
}

// counters sums the tiers' public counters under layer-prefixed names.
func counters(tiers []*tier) map[string]int64 {
	c := map[string]int64{}
	for _, t := range tiers {
		if g := t.gris; g != nil {
			c["gris.invocations"] += g.Invocations.Value()
			c["gris.cache_hits"] += g.CacheHits.Value()
			c["gris.cache_misses"] += g.CacheMisses.Value()
		}
		if g := t.giis; g != nil {
			c["giis.searches"] += g.Searches.Value()
			c["giis.chained_ops"] += g.ChainedOps.Value()
			c["giis.hedge_fires"] += g.HedgeFired.Value()
			c["giis.pool_dials"] += t.dials.Load()
			c["grrp.rejected"] += int64(g.Receiver().Rejected())
			if qc := g.QueryCache(); qc != nil {
				st := qc.Stats()
				c["qcache.hits"] += st.Hits
				c["qcache.misses"] += st.Misses
				c["qcache.coalesced"] += st.Coalesced
				c["qcache.evicted"] += st.Evicted
			}
		}
	}
	return c
}

// peakRSSKB reads VmHWM, the process's resident-set high-water mark.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb
		}
	}
	return 0
}

func snapshot(tiers []*tier) (*childStats, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &childStats{
		CPUNs:    ru.Utime.Nano() + ru.Stime.Nano(),
		Mallocs:  ms.Mallocs,
		PeakKB:   peakRSSKB(),
		Counters: counters(tiers),
		Procs:    runtime.GOMAXPROCS(0),
	}, nil
}

// serve runs the control loop until "quit" or EOF on in (the driver died).
func serve(in io.Reader, out io.Writer) error {
	var tiers []*tier
	defer func() {
		for i := len(tiers) - 1; i >= 0; i-- {
			tiers[i].stop()
		}
	}()
	dec := json.NewDecoder(bufio.NewReaderSize(in, 1<<20))
	enc := json.NewEncoder(out)
	for {
		var req ctlRequest
		if err := dec.Decode(&req); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("control pipe: %w", err)
		}
		var rep ctlReply
		switch req.Cmd {
		case "build":
			var tracer *obs.Tracer
			if req.Trace {
				tracer = obs.NewTracer(softstate.RealClock{}, 0)
			}
			for _, n := range req.Nodes {
				t, addr, err := startTier(n, tracer)
				if err != nil {
					rep.Err = err.Error()
					break
				}
				tiers = append(tiers, t)
				rep.Addrs = append(rep.Addrs, addr)
			}
		case "gc":
			runtime.GC()
		case "stats":
			st, err := snapshot(tiers)
			if err != nil {
				rep.Err = err.Error()
			}
			rep.Stats = st
		case "quit":
			return enc.Encode(&rep)
		default:
			rep.Err = "unknown command " + req.Cmd
		}
		if err := enc.Encode(&rep); err != nil {
			return fmt.Errorf("control pipe: %w", err)
		}
	}
}
