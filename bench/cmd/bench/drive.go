package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
)

// The driver is the only client the server process has: at most two
// connections, one goroutine each. Searches are closed loop (a broker waits
// for its answer before asking again), the register-storm GRRP stream is
// open loop at a fixed rate (providers refresh on timers, whatever the
// directory is doing) and is timed from the intended send time.

// session is one server process with its topology up, registrations
// loaded, connections dialled and warm-up done.
type session struct {
	w     *workload
	child *child
	conns []*ldap.Client
	speed *speedometer

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error
}

// fail counts one failed operation and keeps the first reason.
func (s *session) fail(err error) {
	s.failed.Add(1)
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

func (s *session) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	return s.child.stop()
}

// setup starts a server process, builds w's topology in it, loads the
// registrations over the wire and runs the fixed, verified warm-up. The
// returned duration is the workload's set-up time at nominal machine speed
// (see speed.go). Any failed or wrong
// answer during set-up is an error: this is the check that runs before
// every long run.
func setup(w *workload, trace bool, speed *speedometer) (*session, time.Duration, error) {
	t0 := time.Now()
	ch, err := startChild()
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, child: ch, speed: speed}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	addrs, err := ch.build(w.nodes, trace)
	if err != nil {
		return nil, 0, err
	}
	if err := s.loadRegistrations(addrs); err != nil {
		return nil, 0, err
	}
	for range w.search {
		c, err := ldap.Dial(addrs[w.target])
		if err != nil {
			return nil, 0, fmt.Errorf("dialling %s: %w", w.nodes[w.target].Name, err)
		}
		s.conns = append(s.conns, c)
	}
	var wg sync.WaitGroup
	for i := range s.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < w.warmup; n++ {
				if i == 0 && w.register != nil {
					s.doRegister(s.conns[0], w.register.next())
				} else {
					s.doSearch(s.conns[i], w.search[i].next(), false)
				}
			}
		}(i)
	}
	wg.Wait()
	if s.firstErr != nil {
		return nil, 0, fmt.Errorf("%s: check failed during warm-up (%d of %d operations): %w",
			w.name, s.failed.Load(), s.attempted.Load(), s.firstErr)
	}
	ok = true
	took := time.Since(t0)
	return s, time.Duration(float64(took) / speed.factor(t0, t0.Add(took))), nil
}

// loadRegistrations plays the part of every provider's first GRRP message:
// one LDAP Add per registration, to the tier it registers with.
func (s *session) loadRegistrations(addrs []string) error {
	targets := map[int]*ldap.Client{}
	defer func() {
		for _, c := range targets {
			c.Close()
		}
	}()
	for _, r := range s.w.regs {
		c := targets[r.Target]
		if c == nil {
			var err error
			if c, err = ldap.Dial(addrs[r.Target]); err != nil {
				return fmt.Errorf("dialling %s: %w", s.w.nodes[r.Target].Name, err)
			}
			targets[r.Target] = c
		}
		url := r.URL
		if r.Node >= 0 {
			url = "ldap://" + addrs[r.Node]
		}
		o := op{Ident: r.Ident, URL: url, RegVO: r.VO, Suffix: r.Suffix,
			ValidFor: r.ValidFor, VO: r.Ident % voCount}
		if err := s.register(c, o, r.MDSType); err != nil {
			return fmt.Errorf("registering %s with %s: %w", url, s.w.nodes[r.Target].Name, err)
		}
	}
	return nil
}

// register sends one GRRP registration as an LDAP Add (the MDS-2.1
// transport) and keeps the identity table in step.
func (s *session) register(c *ldap.Client, o op, mdsType string) error {
	now := time.Now()
	m := grrp.Message{Type: grrp.TypeRegister, ServiceURL: o.URL, MDSType: mdsType, VO: o.RegVO,
		SuffixDN: o.Suffix, IssuedAt: now, ValidUntil: now.Add(o.ValidFor)}
	track := s.w.idents != nil && o.Ident >= 0
	if track {
		s.w.idents.sending(o.URL, o.VO, now, m.ValidUntil)
	}
	s.attempted.Add(1)
	if err := c.Add(m.ToEntry()); err != nil {
		return err
	}
	if track {
		s.w.idents.acked(o.URL, time.Now(), m.ValidUntil)
	}
	return nil
}

func (s *session) doRegister(c *ldap.Client, o op) {
	if err := s.register(c, o, "gris"); err != nil {
		s.fail(fmt.Errorf("register %s: %w", o.URL, err))
	}
}

// entrySum hashes a reply DN the way the generator hashed its own.
func entrySum(dn ldap.DN) uint64 {
	h := uint64(fnvOffset)
	for _, rdn := range dn {
		for _, ava := range rdn {
			h = hashAVA(h, ava.Attr, ava.Value)
		}
	}
	return h
}

// doSearch runs one search and verifies the reply against the oracle. The
// latency runs from just before the request is written to the done message.
// With trace set, the trace-request control rides along and the span tree
// the server returns is handed back.
func (s *session) doSearch(c *ldap.Client, o op, trace bool) (time.Duration, *obs.TraceExport) {
	s.attempted.Add(1)
	f, err := ldap.ParseFilter(o.Filter)
	if err != nil {
		s.fail(fmt.Errorf("generated filter %q: %w", o.Filter, err))
		return 0, nil
	}
	req := &ldap.SearchRequest{BaseDN: o.Base, Scope: ldap.Scope(o.Scope), Filter: f, Attributes: o.Attrs}
	var ctls []ldap.Control
	if trace {
		ctls = []ldap.Control{ldap.NewTraceControl("", 0)}
	}
	sent := time.Now()
	res, err := c.SearchWith(req, ctls)
	recv := time.Now()
	lat := recv.Sub(sent)
	if err != nil {
		s.fail(fmt.Errorf("search %s: %w", o.Filter, err))
		return lat, nil
	}
	if res.Result.Message != "" {
		s.fail(fmt.Errorf("search %s: %s", o.Filter, res.Result.Message))
		return lat, nil
	}
	if o.VO >= 0 {
		urls := make([]string, len(res.Entries))
		for i, e := range res.Entries {
			urls[i] = e.First("url")
		}
		if err := s.w.idents.check(o.VO, urls, sent, recv); err != nil {
			s.fail(err)
		}
	} else {
		var sum uint64
		for _, e := range res.Entries {
			sum += entrySum(e.DN)
		}
		if len(res.Entries) != o.Want || sum != o.Sum {
			s.fail(fmt.Errorf("search %s: got %d entries (dn sum %016x), want %d (%016x)",
				o.Filter, len(res.Entries), sum, o.Want, o.Sum))
		}
	}
	var spans *obs.TraceExport
	if trace {
		spans, _ = ldap.TraceSpans(res.DoneControls)
	}
	return lat, spans
}

// openLoop calls do(i, intended) for every intended send time start+i*gap
// before end, sleeping until each is due. do runs synchronously, so a
// stalled send makes the following ones late; they are still handed their
// intended time, which is what latency must be measured from.
func openLoop(start, end time.Time, gap time.Duration, do func(i int, intended time.Time)) {
	for i := 0; ; i++ {
		intended := start.Add(time.Duration(i) * gap)
		if !intended.Before(end) {
			return
		}
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		do(i, intended)
	}
}

// lateAfter is how far past its due time a register send may leave before
// the generator counts as late.
const lateAfter = time.Millisecond

// tracedSearch pairs the driver-side root span with the server's tree.
type tracedSearch struct {
	RootNs int64            `json:"driver_root_ns"`
	Server *obs.TraceExport `json:"server"`
}

// windowResult is the raw material of one timed window.
type windowResult struct {
	bounds   []int64   // slice boundaries, ns offsets from the window start
	speed    []float64 // machine slowness factor per slice
	stats    []*childStats
	search   []sample
	register []sample
	regLate  int // register sends that left more than lateAfter past due
	traces   []tracedSearch
}

// window drives the workload for d, cut into sliceCount slices. The server
// process is sampled at every slice boundary; its first sample follows a
// forced GC so that every run starts the window from the same heap state.
func (s *session) window(d time.Duration, trace bool) (*windowResult, error) {
	if err := s.child.gc(); err != nil {
		return nil, err
	}
	res := &windowResult{}
	start := time.Now()
	takeSample := func() error {
		before := time.Now()
		st, err := s.child.stats()
		if err != nil {
			return err
		}
		mid := before.Add(time.Since(before) / 2)
		res.stats = append(res.stats, st)
		res.bounds = append(res.bounds, int64(mid.Sub(start)))
		return nil
	}
	if err := takeSample(); err != nil {
		return nil, err
	}
	end := start.Add(d)

	var wg sync.WaitGroup
	perConn := make([][]sample, len(s.conns))
	traces := make([][]tracedSearch, len(s.conns))
	for i := range s.conns {
		if i == 0 && s.w.register != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gap := time.Second / registerRate
				openLoop(start, end, gap, func(_ int, intended time.Time) {
					sentAt := time.Now()
					s.doRegister(s.conns[0], s.w.register.next())
					done := time.Now()
					if sentAt.Sub(intended) > lateAfter {
						res.regLate++
					}
					res.register = append(res.register,
						sample{done: int64(done.Sub(start)), lat: int64(done.Sub(intended))})
				})
			}()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<16)
			for time.Now().Before(end) {
				lat, spans := s.doSearch(s.conns[i], s.w.search[i].next(), trace)
				out = append(out, sample{done: int64(time.Since(start)), lat: int64(lat)})
				if spans != nil {
					traces[i] = append(traces[i], tracedSearch{RootNs: int64(lat), Server: spans})
				}
			}
			perConn[i] = out
		}(i)
	}
	var sampleErr error
	for k := 1; k <= sliceCount; k++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(k) / sliceCount)))
		if err := takeSample(); err != nil && sampleErr == nil {
			sampleErr = err
		}
	}
	wg.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}
	for k := 0; k+1 < len(res.bounds); k++ {
		res.speed = append(res.speed, s.speed.factor(
			start.Add(time.Duration(res.bounds[k])), start.Add(time.Duration(res.bounds[k+1]))))
	}
	for i := range perConn {
		res.search = append(res.search, perConn[i]...)
		res.traces = append(res.traces, traces[i]...)
	}
	sort.Slice(res.search, func(i, j int) bool { return res.search[i].done < res.search[j].done })
	return res, nil
}

// serverCost divides a per-slice delta of the server process's own
// accounting by the searches completed in that slice, and reports the
// median. Normalising by searches (not by all operations) keeps a wobble in
// the open-loop register count out of the number.
func serverCost(r *windowResult, per []sliceStat, unit string,
	delta func(a, b *childStats) float64, scale func(sliceStat, float64) float64) metricValue {
	mv := metricValue{Unit: unit}
	for k, s := range per {
		if s.n == 0 {
			continue
		}
		mv.Slices = append(mv.Slices, scale(s, delta(r.stats[k], r.stats[k+1])/float64(s.n)))
		mv.Samples += s.n
	}
	mv.Value = median(mv.Slices)
	return mv
}

func cpuMs(a, b *childStats) float64   { return float64(b.CPUNs-a.CPUNs) / 1e6 }
func mallocs(a, b *childStats) float64 { return float64(b.Mallocs - a.Mallocs) }

// unscaled leaves a per-slice value as measured (counts, and raw times).
func unscaled(_ sliceStat, v float64) float64 { return v }

// thinSlice is the per-slice sample count below which latency percentiles
// are too coarse to trust; workloads are sized to stay well above it.
const thinSlice = 100

// endToEndMetrics turns one gated window into the end-to-end metric set.
func endToEndMetrics(r *windowResult, setups []float64) (map[string]metricValue, error) {
	per := sliceStats(r.search, r.bounds, r.speed)
	for k, s := range per {
		if s.n == 0 {
			return nil, fmt.Errorf("slice %d completed no search", k)
		}
		if s.n < thinSlice {
			fmt.Fprintf(os.Stderr, "bench: warning: slice %d completed only %d searches; its percentiles rest on fewer than %d samples\n",
				k, s.n, thinSlice)
		}
	}
	last := r.stats[len(r.stats)-1]
	return map[string]metricValue{
		"search_per_s":             overSlices(per, "1/s", func(s sliceStat) float64 { return s.rate(s.perS) }),
		"search_p50_ms":            overSlices(per, "ms", func(s sliceStat) float64 { return s.fast(s.p50) }),
		"server_cpu_ms_per_search": serverCost(r, per, "ms", cpuMs, sliceStat.fast),
		"server_allocs_per_search": serverCost(r, per, "count", mallocs, unscaled),
		"server_rss_mb":            {Value: float64(last.PeakKB) / 1024, Unit: "MB", Samples: 1},
		"setup_s":                  {Value: median(setups), Unit: "s", Samples: len(setups), Slices: setups},
	}, nil
}

// diagnostics are the driver-side numbers that are printed but never gated.
func diagnostics(r *windowResult) map[string]metricValue {
	per := sliceStats(r.search, r.bounds, nil)
	out := map[string]metricValue{
		"search_p90_ms":                overSlices(per, "ms", func(s sliceStat) float64 { return s.p90 }),
		"search_p99_ms":                overSlices(per, "ms", func(s sliceStat) float64 { return s.p99 }),
		"raw.search_per_s":             overSlices(per, "1/s", func(s sliceStat) float64 { return s.perS }),
		"raw.search_p50_ms":            overSlices(per, "ms", func(s sliceStat) float64 { return s.p50 }),
		"raw.server_cpu_ms_per_search": serverCost(r, per, "ms", cpuMs, unscaled),
		"driver.speed_factor":          {Value: median(r.speed), Unit: "ratio", Slices: r.speed},
	}
	reg := sliceStats(r.register, r.bounds, nil)
	out["register_p50_ms"] = overSlices(reg, "ms", func(s sliceStat) float64 { return s.p50 })
	out["register_p90_ms"] = overSlices(reg, "ms", func(s sliceStat) float64 { return s.p90 })
	out["register_p99_ms"] = overSlices(reg, "ms", func(s sliceStat) float64 { return s.p99 })
	out["driver.register_achieved_per_s"] = overSlices(reg, "1/s", func(s sliceStat) float64 { return s.perS })
	out["driver.register_late_share"] = metricValue{Unit: "ratio", Samples: len(r.register),
		Value: ratio(int64(r.regLate), int64(len(r.register)))}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics reads the server tiers' public counters as they stood at
// the end of the window.
func counterMetrics(r *windowResult) map[string]metricValue {
	c := r.stats[len(r.stats)-1].Counters
	count := func(name string) metricValue { return metricValue{Value: float64(c[name]), Unit: "count"} }
	return map[string]metricValue{
		"gris.cache_hit_ratio": {Value: ratio(c["gris.cache_hits"], c["gris.cache_hits"]+c["gris.cache_misses"]), Unit: "ratio"},
		"gris.invocations":     count("gris.invocations"),
		"giis.fanout_mean":     {Value: ratio(c["giis.chained_ops"], c["giis.searches"]), Unit: "count"},
		"giis.pool_dials":      count("giis.pool_dials"),
		"giis.hedge_fires":     count("giis.hedge_fires"),
		"qcache.hit_ratio":     {Value: ratio(c["qcache.hits"], c["qcache.hits"]+c["qcache.misses"]), Unit: "ratio"},
		"qcache.evicted":       count("qcache.evicted"),
		"qcache.coalesced":     count("qcache.coalesced"),
		"grrp.rejected":        count("grrp.rejected"),
	}
}
