package main

import "encoding/json"

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is
// rejected; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the running system sees: capacity and latency
// from the driver's side of the socket, cost from the server process's own
// accounting. Times are at nominal machine speed (speed.go). Each bound is
// about three times the widest run-to-run spread CALIBRATION.md records for
// the metric on any workload, never under a floor of 2 % nor over the 25 %
// the acceptance contract allows.
var endToEnd = []metricDef{
	{"search_per_s", "1/s", "higher", 0.20},
	{"search_p50_ms", "ms", "lower", 0.20},
	{"server_cpu_ms_per_search", "ms", "lower", 0.20},
	{"server_allocs_per_search", "count", "lower", 0.02},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the -layers (--trace 1) output: trace self times, the
// in-process layer pass, child-side counters, and driver diagnostics.
var perLayer = []metricDef{
	// Traced run: where one search's wall time goes (mean ms per search).
	{"client.rtt_self_ms", "ms", "lower", 0},
	{"ldap.queue_ms", "ms", "lower", 0},
	{"ldap.encode_write_ms", "ms", "lower", 0},
	{"ldap.encode_write_share", "ratio", "lower", 0},
	{"gris.backend_ms", "ms", "lower", 0},
	{"gris.self_ms", "ms", "lower", 0},
	{"giis.chain_top_ms", "ms", "lower", 0},
	{"giis.chain_mid_ms", "ms", "lower", 0},
	{"giis.self_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	// Layer pass: one goroutine, fixed iteration counts.
	{"ber.decode_ns_per_msg", "ns", "lower", 0},
	{"ber.encode_ns_per_entry", "ns", "lower", 0},
	{"ber.encode_allocs_per_entry", "count", "lower", 0},
	{"ldap.filter_compile_ns", "ns", "lower", 0},
	{"ldap.filter_match_ns_per_entry", "ns", "lower", 0},
	{"ldap.store_find_point_ns", "ns", "lower", 0},
	{"ldap.store_put_ns", "ns", "lower", 0},
	{"gris.search_ns", "ns", "lower", 0},
	{"gris.entries_examined_per_result", "count", "lower", 0},
	{"giis.index_search_ns", "ns", "lower", 0},
	{"giis.children_rebuild_ns", "ns", "lower", 0},
	{"qcache.key_ns", "ns", "lower", 0},
	{"qcache.hit_ns", "ns", "lower", 0},
	{"qcache.fill_ns", "ns", "lower", 0},
	{"softstate.refresh_ns", "ns", "lower", 0},
	{"softstate.refresh_batch_ns_per_item", "ns", "lower", 0},
	{"softstate.live_snapshot_ns", "ns", "lower", 0},
	{"grrp.fromentry_ns", "ns", "lower", 0},
	{"grrp.ingest_ns", "ns", "lower", 0},
	{"persist.journal_append_ns", "ns", "lower", 0},
	{"persist.wal_bytes_per_registration", "B", "lower", 0},
	{"shard.plan_ns", "ns", "lower", 0},
	{"shard.owners_ns", "ns", "lower", 0},
	// Child-side public counters, read at the end of the untraced phase.
	{"gris.cache_hit_ratio", "ratio", "higher", 0},
	{"gris.invocations", "count", "lower", 0},
	{"giis.fanout_mean", "count", "lower", 0},
	{"giis.pool_dials", "count", "lower", 0},
	{"giis.hedge_fires", "count", "lower", 0},
	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.evicted", "count", "lower", 0},
	{"qcache.coalesced", "count", "higher", 0},
	{"grrp.rejected", "count", "lower", 0},
	// Driver diagnostics: they explain a moved end-to-end number and are
	// never gated (tails and open-loop echoes do not repeat well enough;
	// search_p90_ms spread 10-13 % in calibration and was demoted).
	{"search_p90_ms", "ms", "lower", 0},
	{"search_p99_ms", "ms", "lower", 0},
	{"register_p50_ms", "ms", "lower", 0},
	{"register_p90_ms", "ms", "lower", 0},
	{"register_p99_ms", "ms", "lower", 0},
	{"driver.register_late_share", "ratio", "lower", 0},
	{"driver.register_achieved_per_s", "1/s", "higher", 0},
}

// workloadDef is one named traffic mix and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"enquiry-point", "GRIP enquiry at the smallest message: 1 of 2,000 cached hosts from one GRIS; per-message ber/ldap/gris cost dominates, giis/qcache/softstate idle"},
	{"discover-unique", "3-hop chained discovery, 200 entries back, every cache key new (7k keys vs 256 slots): giis fan-out, per-hop ber and qcache miss+evict do the work"},
	{"discover-hot", "same tree, 16 Zipf-drawn queries that fit the top qcache and never expire: the pure hit+encode+write path, lower tiers idle; bypass partner of discover-unique"},
	{"register-storm", "250/s open-loop GRRP Adds beside closed-loop index searches on one GIIS with 1,000 providers: softstate writes vs readers, Children() rebuilds"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the names this program prints cannot drift apart
// (TestManifestMatchesCheckedIn pins the checked-in copy).
func manifest(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // flat struct of strings and numbers
	}
	return append(b, '\n')
}
