package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mds2/internal/ber"
	"mds2/internal/giis"
	"mds2/internal/gris"
	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/persist"
	"mds2/internal/qcache"
	"mds2/internal/shard"
	"mds2/internal/softstate"
)

// The layer pass times calls into each layer's public functions from
// outside, in this process, on one goroutine, with fixed iteration counts
// and the same generated inputs the workloads use. It says what one call
// costs; the traced run says where a search's wall time goes.

// layerRounds is how many times each measurement repeats; the median round
// is reported.
const layerRounds = 5

// timeOp runs fn iters times per round and returns the median ns and the
// median heap allocations per call.
func timeOp(iters int, fn func()) (ns, allocs float64) {
	fn() // warm caches and lazily built state outside the timing
	nss := make([]float64, layerRounds)
	als := make([]float64, layerRounds)
	var before, after runtime.MemStats
	for r := range nss {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		nss[r] = float64(d.Nanoseconds()) / float64(iters)
		als[r] = float64(after.Mallocs-before.Mallocs) / float64(iters)
	}
	return median(nss), median(als)
}

// timeAfter is timeOp for a call that needs fresh state each time: prep(i)
// runs off the clock, only fn is timed.
func timeAfter(iters int, prep func(i int), fn func()) float64 {
	rounds := make([]float64, layerRounds)
	for r := range rounds {
		var spent time.Duration
		for i := 0; i < iters; i++ {
			prep(i)
			t0 := time.Now()
			fn()
			spent += time.Since(t0)
		}
		rounds[r] = float64(spent.Nanoseconds()) / float64(iters)
	}
	return median(rounds)
}

// discardWriter is a SearchWriter that drops what it is sent.
type discardWriter struct{ n int }

func (w *discardWriter) SendEntry(*ldap.Entry, ...ldap.Control) error { w.n++; return nil }
func (w *discardWriter) SendReferral(...string) error                 { return nil }

func providerMessage(i int, now time.Time) *grrp.Message {
	return &grrp.Message{Type: grrp.TypeRegister, ServiceURL: providerURL(i), MDSType: "gris",
		VO: fmt.Sprintf("vo%d", i%voCount), SuffixDN: providerSuffix(i),
		IssuedAt: now, ValidUntil: now.Add(time.Hour)}
}

// layerPass measures every in-process per-layer metric. scratch is a
// directory it may write the WAL probe into.
func layerPass(seed int64, scratch string) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	put := func(name, unit string, v float64, iters int) {
		out[name] = metricValue{Value: v, Unit: unit, Samples: iters * layerRounds}
	}
	rng := rand.New(rand.NewSource(seed))
	hosts := makeHosts(rng, 1)
	suffix := ldap.MustParseDN("ou=s0, " + gridSuffix)
	entries := make([]*ldap.Entry, len(hosts))
	for i, h := range hosts {
		e, err := h.spec.entry()
		if err != nil {
			return nil, err
		}
		entries[i] = e
	}
	point := func(k int) *ldap.Filter {
		return ldap.MustParseFilter(fmt.Sprintf("(&(objectclass=computer)(hn=%s))", hosts[k].name))
	}
	req := &ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}}

	// ber + ldap codec: one streamed search entry, both directions.
	msg := &ldap.Message{ID: 7, Op: &ldap.SearchResultEntry{Entry: entries[0]}}
	wire := msg.AppendTo(nil)
	{
		const iters = 20000
		buf := make([]byte, 0, 512)
		ns, allocs := timeOp(iters, func() { buf = msg.AppendTo(buf[:0]) })
		put("ber.encode_ns_per_entry", "ns", ns, iters)
		put("ber.encode_allocs_per_entry", "count", allocs, iters)

		rd := bytes.NewReader(wire)
		var frame []byte
		var derr error
		ns, _ = timeOp(iters, func() {
			rd.Reset(wire)
			var pkt *ber.Packet
			if pkt, frame, derr = ber.ReadPacketBuf(rd, frame); derr == nil {
				_, derr = ldap.DecodeMessage(pkt)
			}
		})
		if derr != nil {
			return nil, fmt.Errorf("layer pass: decode: %w", derr)
		}
		put("ber.decode_ns_per_msg", "ns", ns, iters)
	}

	// ldap filter: compile once per query, match once per cached entry.
	{
		f := point(1234)
		ns, _ := timeOp(20000, func() { _ = f.Compile() })
		put("ldap.filter_compile_ns", "ns", ns, 20000)
		cf := f.Compile()
		hits := 0
		ns, _ = timeOp(20, func() {
			for _, e := range entries {
				if cf.Matches(e) {
					hits++
				}
			}
		})
		if hits == 0 {
			return nil, fmt.Errorf("layer pass: point filter matched nothing")
		}
		put("ldap.filter_match_ns_per_entry", "ns", ns/float64(len(entries)), 20*len(entries))
	}

	// ldap.Store: indexed point find and overwrite put.
	{
		st := ldap.NewStore()
		if err := st.PutAll(entries); err != nil {
			return nil, err
		}
		k := 0
		found := 0
		ns, _ := timeOp(5000, func() {
			found += len(st.Find(suffix, ldap.ScopeWholeSubtree, point(k%len(hosts))))
			k++
		})
		if found == 0 {
			return nil, fmt.Errorf("layer pass: store point find matched nothing")
		}
		put("ldap.store_find_point_ns", "ns", ns, 5000)
		var perr error
		ns, _ = timeOp(5000, func() {
			if err := st.Put(entries[k%len(entries)]); err != nil {
				perr = err
			}
			k++
		})
		if perr != nil {
			return nil, perr
		}
		put("ldap.store_put_ns", "ns", ns, 5000)
	}

	// gris: one enquiry through the handler, reply discarded.
	{
		g := gris.New(gris.Config{Suffix: suffix})
		g.Register(&corpusBackend{name: "corpus", suffix: suffix, entries: entries, ttl: time.Hour})
		w := &discardWriter{}
		k := 0
		ns, _ := timeOp(300, func() {
			g.Search(req, &ldap.SearchRequest{BaseDN: suffix.String(), Scope: ldap.ScopeWholeSubtree,
				Filter: point(k % len(hosts))}, w)
			k++
		})
		if w.n != k {
			return nil, fmt.Errorf("layer pass: gris answered %d of %d enquiries", w.n, k)
		}
		put("gris.search_ns", "ns", ns, 300)
		put("gris.entries_examined_per_result", "count", float64(len(entries)), 1)
	}

	// softstate + grrp + giis over a registry of `providers` registrations.
	now := time.Now()
	msgs := make([]*grrp.Message, providers)
	for i := range msgs {
		msgs[i] = providerMessage(i, now)
	}
	{
		reg := softstate.NewRegistry(nil)
		defer reg.Close()
		batch := make([]softstate.Refreshment, len(msgs))
		for i, m := range msgs {
			batch[i] = softstate.Refreshment{Key: m.ServiceURL, Payload: m, TTL: time.Hour}
		}
		reg.RefreshBatch(batch)
		k := 0
		ns, _ := timeOp(20000, func() {
			b := batch[k%len(batch)]
			reg.Refresh(b.Key, b.Payload, b.TTL)
			k++
		})
		put("softstate.refresh_ns", "ns", ns, 20000)
		ns, _ = timeOp(200, func() { reg.RefreshBatch(batch[:100]) })
		put("softstate.refresh_batch_ns_per_item", "ns", ns/100, 200*100)
		// Live() right after a bump re-sorts the whole table; only the
		// Live call is on the clock.
		live := 0
		ns = timeAfter(40, func(i int) { reg.Refresh(batch[i].Key, batch[i].Payload, batch[i].TTL) },
			func() { live = len(reg.Live()) })
		if live != providers {
			return nil, fmt.Errorf("layer pass: registry holds %d of %d items", live, providers)
		}
		put("softstate.live_snapshot_ns", "ns", ns, 40)
	}
	{
		entry := msgs[0].ToEntry()
		var ferr error
		ns, _ := timeOp(20000, func() {
			if _, err := grrp.FromEntry(entry); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			return nil, ferr
		}
		put("grrp.fromentry_ns", "ns", ns, 20000)
		rcv := grrp.NewReceiver(nil)
		defer rcv.Close()
		rcv.IngestBatch(msgs)
		k := 0
		ns, _ = timeOp(20000, func() {
			rcv.Ingest(msgs[k%len(msgs)])
			k++
		})
		if rcv.Rejected() != 0 {
			return nil, fmt.Errorf("layer pass: receiver rejected %d registrations", rcv.Rejected())
		}
		put("grrp.ingest_ns", "ns", ns, 20000)
	}
	{
		d := giis.New(giis.Config{Name: "giis.layer", Suffix: ldap.MustParseDN(gridSuffix)})
		defer d.Close()
		if n := d.IngestBatch(msgs); n != providers {
			return nil, fmt.Errorf("layer pass: giis accepted %d of %d registrations", n, providers)
		}
		w := &discardWriter{}
		k := 0
		ns, _ := timeOp(20, func() {
			d.Search(req, &ldap.SearchRequest{BaseDN: gridSuffix, Scope: ldap.ScopeSingleLevel,
				Filter: ldap.MustParseFilter(fmt.Sprintf("(&(objectclass=mdsservice)(vo=vo%d))", k%voCount))}, w)
			k++
		})
		if w.n != k*(providers/voCount) {
			return nil, fmt.Errorf("layer pass: giis index returned %d entries for %d searches", w.n, k)
		}
		put("giis.index_search_ns", "ns", ns, 20)
		children := 0
		ns = timeAfter(20, func(i int) { d.Ingest(msgs[i]) }, func() { children = len(d.Children()) })
		if children != providers {
			return nil, fmt.Errorf("layer pass: giis holds %d of %d children", children, providers)
		}
		put("giis.children_rebuild_ns", "ns", ns, 20)
	}

	// qcache: key rendering, hit, and the miss + fill + evict path of a
	// full cache.
	{
		result := entries[:hostsTotal/rackCount]
		region := qcache.Region{Owner: "ldap://127.0.0.1:2135", Base: ldap.MustParseDN(gridSuffix),
			Scope: ldap.ScopeWholeSubtree, Filter: ldap.MustParseFilter("(&(objectclass=computer)(rack=r3)(!(jobid=17)))")}
		var key string
		ns, _ := timeOp(20000, func() { key = region.Key(nil, 0) })
		put("qcache.key_ns", "ns", ns, 20000)
		qc := qcache.New(qcache.Config{Name: "layer", TTL: time.Hour, Max: topoQCacheMx})
		qc.Put(key, region, time.Time{}, result)
		misses := 0
		ns, _ = timeOp(20000, func() {
			if _, ok := qc.Get(key); !ok {
				misses++
			}
		})
		if misses != 0 {
			return nil, fmt.Errorf("layer pass: qcache missed a resident key %d times", misses)
		}
		put("qcache.hit_ns", "ns", ns, 20000)
		k := 0
		fill := func() ([]*ldap.Entry, error) { return result, nil }
		ns, _ = timeOp(5000, func() {
			qc.GetOrFill(fmt.Sprintf("%s#%d", key, k), region, time.Time{}, fill)
			k++
		})
		put("qcache.fill_ns", "ns", ns, 5000)
	}

	// persist: journal one registration refresh into a WAL nobody fsyncs.
	{
		dir := filepath.Join(scratch, "walprobe")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		m, err := persist.Open(persist.Options{Dir: dir, Sync: persist.SyncNone,
			Codec: persist.PayloadCodec{Encode: grrp.EncodePayload, Decode: grrp.DecodePayload}})
		if err != nil {
			return nil, fmt.Errorf("layer pass: wal probe: %w", err)
		}
		if err := m.Attach(nil, nil); err != nil {
			m.Close()
			return nil, fmt.Errorf("layer pass: wal probe: %w", err)
		}
		rec := []softstate.JournalRecord{{Op: softstate.JournalRefresh, Item: softstate.Item{
			Key: msgs[0].ServiceURL, Payload: msgs[0], ExpiresAt: now.Add(time.Hour),
			Refreshes: 1, JoinedAt: now, LastRefresh: now}}}
		const iters = 5000
		ns, _ := timeOp(iters, func() { m.JournalRegistry(rec) })
		berr := m.Barrier()
		var walBytes int64
		files, _ := os.ReadDir(dir)
		for _, f := range files {
			if info, err := f.Info(); err == nil {
				walBytes += info.Size()
			}
		}
		if err := m.Close(); err != nil && berr == nil {
			berr = err
		}
		os.RemoveAll(dir)
		if berr != nil {
			return nil, fmt.Errorf("layer pass: wal probe: %w", berr)
		}
		put("persist.journal_append_ns", "ns", ns, iters)
		put("persist.wal_bytes_per_registration", "B", float64(walBytes)/float64(iters*layerRounds+1), iters)
	}

	// shard: plan a routed lookup and place one registration on an 8-ring.
	{
		members := make([]shard.Member, 8)
		for i := range members {
			members[i] = shard.Member{ID: fmt.Sprintf("s%d", i),
				URL: ldap.URL{Scheme: "ldap", Host: "127.0.0.1", Port: fmt.Sprint(3000 + i)}}
		}
		ring := shard.NewRing(members, 0)
		pl := shard.NewPlanner(ring, "s0", 2, ldap.MustParseDN(gridSuffix), nil)
		base := ldap.MustParseDN(gridSuffix)
		f := point(99)
		ns, _ := timeOp(20000, func() { _ = pl.Plan(base, f) })
		put("shard.plan_ns", "ns", ns, 20000)
		k := 0
		ns, _ = timeOp(20000, func() {
			_ = ring.Owners(hosts[k%len(hosts)].name, 2)
			k++
		})
		put("shard.owners_ns", "ns", ns, 20000)
	}
	return out, nil
}
