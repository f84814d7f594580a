package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"

	"mds2/internal/obs"
)

// Self-time attribution for one traced search.
//
// The server returns the span tree it already records (queue,
// backend:<name>, chain:<url> with the child hop's tree grafted under it,
// encode+write); the driver wraps it in one root span around its own client
// call. Every instant of that root is charged to exactly one span: the most
// recently started span that covers it (a deeper span wins a tie). A
// span's self time is therefore its duration minus what later-started spans
// inside it cover, overlapping siblings are never charged twice, and the
// self times of a trace sum to the driver root exactly.
//
// A hop's tree carries offsets relative to that hop's own root, and hops
// share no clock the tree records, so each hop root is centred in the span
// that caused it (the driver root, or the parent's chain span).

// Span classes the per-layer metrics are named after.
const (
	classClient   = "client"    // driver root: client encode/decode + loopback
	classQueue    = "queue"     // ldap: read loop -> dispatch handoff, admission wait
	classEncode   = "encode"    // ldap: encode+write of streamed entries
	classBackend  = "backend"   // gris: provider fetch through the TTL cache
	classGrisSelf = "gris.self" // gris hop root: filter, scope, sort
	classGiisSelf = "giis.self" // giis hop root: child set, index, merge
	classChainTop = "chain.top" // giis: first hop's chain spans (wire + client side)
	classChainMid = "chain.mid" // giis: second hop's chain spans
	classOther    = "other"
)

type interval struct {
	start, end int64
	depth      int
	class      string
}

// hasBackend reports whether a hop root belongs to a GRIS: only a GRIS
// records backend spans.
func hasBackend(n *obs.SpanNode) bool {
	for _, c := range n.Children {
		if strings.HasPrefix(c.Name, "backend:") {
			return true
		}
	}
	return false
}

// flatten appends n's subtree as absolute intervals. base is the absolute
// start of the hop root n's offsets are relative to; [lo, hi) is the
// parent's interval, which n is clipped to; hops counts hop roots above n.
func flatten(out []interval, n *obs.SpanNode, base, lo, hi int64, depth, hops int, hopRoot bool) []interval {
	if hopRoot {
		// Centre the hop in the span that caused it.
		base = lo
		if slack := (hi - lo) - n.DurNs; slack > 0 {
			base += slack / 2
		}
	}
	start, end := base+n.StartNs, base+n.StartNs+n.DurNs
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	if end <= start {
		return out
	}
	class := classOther
	switch {
	case hopRoot && hasBackend(n):
		class = classGrisSelf
	case hopRoot:
		class = classGiisSelf
	case n.Name == "queue":
		class = classQueue
	case n.Name == "encode+write":
		class = classEncode
	case strings.HasPrefix(n.Name, "backend:"):
		class = classBackend
	case strings.HasPrefix(n.Name, "chain:") && hops <= 1:
		class = classChainTop
	case strings.HasPrefix(n.Name, "chain:"):
		class = classChainMid
	}
	if hopRoot {
		hops++
	}
	out = append(out, interval{start, end, depth, class})
	for _, c := range n.Children {
		out = flatten(out, c, base, start, end, depth+1, hops, c.Remote)
	}
	return out
}

// selfTimes attributes the driver root [0, rootNs) to span classes.
func selfTimes(rootNs int64, server *obs.SpanNode) map[string]int64 {
	ivs := []interval{{0, rootNs, 0, classClient}}
	if server != nil {
		ivs = flatten(ivs, server, 0, 0, rootNs, 1, 0, true)
	}
	return attribute(ivs)
}

// attribute charges every instant covered by ivs[0] (which must cover all
// the others) to the covering interval that started last.
func attribute(ivs []interval) map[string]int64 {
	cuts := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		best := -1
		for k, iv := range ivs {
			if iv.start > a || iv.end < b {
				continue
			}
			if best < 0 || iv.start > ivs[best].start ||
				(iv.start == ivs[best].start && iv.depth >= ivs[best].depth) {
				best = k
			}
		}
		if best >= 0 {
			out[ivs[best].class] += b - a
		}
	}
	return out
}

// traceMetrics averages the self times over every traced search (means,
// unlike medians, still sum to the mean root).
func traceMetrics(traces []tracedSearch) map[string]metricValue {
	total := map[string]int64{}
	var root int64
	for _, t := range traces {
		if t.Server == nil {
			continue
		}
		for class, ns := range selfTimes(t.RootNs, t.Server.Spans) {
			total[class] += ns
		}
		root += t.RootNs
	}
	n := len(traces)
	ms := func(classes ...string) metricValue {
		var ns int64
		for _, c := range classes {
			ns += total[c]
		}
		mv := metricValue{Unit: "ms", Samples: n}
		if n > 0 {
			mv.Value = float64(ns) / float64(n) / 1e6
		}
		return mv
	}
	share := func(ns int64) metricValue {
		mv := metricValue{Unit: "ratio", Samples: n}
		if root > 0 {
			mv.Value = float64(ns) / float64(root)
		}
		return mv
	}
	// Covered is what a span other than a hop root (or the driver's own)
	// accounts for; the rest is handler and client time no span names yet.
	covered := total[classQueue] + total[classEncode] + total[classBackend] +
		total[classChainTop] + total[classChainMid]
	return map[string]metricValue{
		"client.rtt_self_ms":      ms(classClient),
		"ldap.queue_ms":           ms(classQueue),
		"ldap.encode_write_ms":    ms(classEncode),
		"ldap.encode_write_share": share(total[classEncode]),
		"gris.backend_ms":         ms(classBackend),
		"gris.self_ms":            ms(classGrisSelf),
		"giis.chain_top_ms":       ms(classChainTop),
		"giis.chain_mid_ms":       ms(classChainMid),
		"giis.self_ms":            ms(classGiisSelf),
		"trace.coverage":          share(covered),
	}
}

// maxTracesWritten bounds trace-<workload>.json; every trace is analysed.
const maxTracesWritten = 2000

func writeTraces(path, workload string, traces []tracedSearch, summary map[string]metricValue) error {
	if len(traces) > maxTracesWritten {
		traces = traces[:maxTracesWritten]
	}
	doc := struct {
		Workload string                 `json:"workload"`
		Rule     string                 `json:"attribution"`
		Summary  map[string]metricValue `json:"summary"`
		Traces   []tracedSearch         `json:"traces"`
	}{workload, "each instant of the driver root is charged to the most recently started span covering it; hop roots are centred in the span that caused them",
		summary, traces}
	b, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
