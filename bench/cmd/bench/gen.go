package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Everything the servers will see is made here from the seed: the entries
// each GRIS serves, the registrations that wire the tiers together, and the
// operation streams with their expected answers. Nothing in this file
// imports the system under test, so the oracle cannot inherit its bugs.

const (
	hostsTotal   = 2000 // hosts in every topology that serves hosts
	rackCount    = 10   // hostsTotal/rackCount = 200 entries per rack query
	leafCount    = 8    // GRIS leaves under the discover tree
	midCount     = 2    // mid-tier GIIS under the top GIIS
	providers    = 1000 // registrations resident on the register-storm GIIS
	voCount      = 20   // providers/voCount = 50 index entries per search
	leaverCount  = 40   // providers that stop refreshing and lapse in-window
	registerRate = 250  // open-loop GRRP Adds per second
	rotateEvery  = 100  // every 100th register send is a join, not a refresh
	hotQueries   = 16   // distinct queries of discover-hot (x2 mids = 32 keys)
	hotZipfS     = 1.1
	registerTTL  = 60 * time.Second
	// uniqueTTL and hotTTL are the top GIIS's query-cache TTLs. Neither
	// expires inside a run: discover-unique never asks twice, and
	// discover-hot is the pure hit path — with a TTL shorter than the run,
	// the number of refills per search (and with it every per-search cost)
	// would depend on how fast the machine happens to be running.
	uniqueTTL    = 30 * time.Second
	hotTTL       = 10 * time.Minute
	gridSuffix   = "o=grid"
	topoQCacheMx = 256
)

// entrySpec is one directory entry as shipped to the server process:
// Attrs[i] is an attribute name followed by its values.
type entrySpec struct {
	DN    string     `json:"dn"`
	Attrs [][]string `json:"attrs"`
}

// nodeSpec describes one server tier. Kind is "gris" or "giis".
type nodeSpec struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Suffix string `json:"suffix"`
	// GRIS: one cached corpus backend.
	Entries     []entrySpec `json:"entries,omitempty"`
	CacheTTLSec int         `json:"cache_ttl_sec,omitempty"`
	// GIIS: chaining, optionally with the query-result cache.
	QueryCache      bool `json:"query_cache,omitempty"`
	QueryCacheTTLMs int  `json:"query_cache_ttl_ms,omitempty"`
	QueryCacheMax   int  `json:"query_cache_max,omitempty"`
}

// regSpec is one GRRP registration the driver loads over the wire during
// set-up. Node >= 0 registers that tier (its URL is only known once it
// listens); otherwise URL names an external provider.
type regSpec struct {
	Target   int
	Node     int
	URL      string
	MDSType  string
	VO       string
	Suffix   string
	ValidFor time.Duration
	Ident    int // register-storm identity index, -1 otherwise
}

// op is one generated operation with its expected answer: a search, or a
// GRRP registration when URL is set. Static searches carry Want/Sum;
// register-storm searches carry VO and are checked against the live identity
// table instead (their answer depends on what the register stream has been
// acked so far).
type op struct {
	Base   string
	Scope  int // 1 = one level, 2 = whole subtree
	Filter string
	Attrs  []string
	Want   int
	Sum    uint64
	VO     int // -1 for static searches
	// Register fields.
	Ident    int
	URL      string
	RegVO    string
	Suffix   string
	ValidFor time.Duration
}

// String is the canonical byte form the determinism test compares.
func (o op) String() string {
	if o.URL != "" {
		return fmt.Sprintf("r %d %s %s %s %d", o.Ident, o.URL, o.RegVO, o.Suffix, o.ValidFor)
	}
	return fmt.Sprintf("s %s %d %s %s %d %016x %d", o.Base, o.Scope, o.Filter,
		strings.Join(o.Attrs, ","), o.Want, o.Sum, o.VO)
}

// opStream yields an endless deterministic operation sequence.
type opStream interface{ next() op }

// workload is one generated benchmark input: topology, wiring, streams.
type workload struct {
	name   string
	nodes  []nodeSpec
	regs   []regSpec
	target int // node the driver connects to
	// warmup is the fixed number of verified operations each connection
	// performs before the window; it is charged to setup_s.
	warmup int
	// search[i] drives connection i closed loop. register, when set,
	// replaces search[0]: connection 0 becomes the open-loop GRRP stream.
	search   []opStream
	register opStream
	idents   *identTable
	params   map[string]any
}

// fnv-1a over the case-folded "attr=value," components of a DN, leaf first.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashFold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func hashAVA(h uint64, attr, value string) uint64 {
	h = hashFold(h, attr)
	h = (h ^ '=') * fnvPrime
	h = hashFold(h, value)
	return (h ^ ',') * fnvPrime
}

// dnSum hashes a DN given as attr, value, attr, value, ... leaf first.
func dnSum(parts ...string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i+1 < len(parts); i += 2 {
		h = hashAVA(h, parts[i], parts[i+1])
	}
	return h
}

// host is the generator's own model of one computer entry.
type host struct {
	name string
	leaf int
	rack int
	spec entrySpec
	sum  uint64
}

// makeHosts builds the host corpus split evenly over leaves GRIS. Names,
// racks and value widths are fixed so every seed produces the same result
// sizes; the seed picks the attribute values.
func makeHosts(rng *rand.Rand, leaves int) []host {
	cpus := []string{"2", "4", "8"}
	mems := []string{"1024", "2048", "4096"}
	per := hostsTotal / leaves
	out := make([]host, hostsTotal)
	for k := range out {
		name := fmt.Sprintf("h%d", k)
		leaf := k / per
		ou := fmt.Sprintf("s%d", leaf)
		rack := k % rackCount
		out[k] = host{
			name: name, leaf: leaf, rack: rack,
			sum: dnSum("hn", name, "ou", ou, "o", "grid"),
			spec: entrySpec{
				DN: fmt.Sprintf("hn=%s, ou=%s, %s", name, ou, gridSuffix),
				Attrs: [][]string{
					{"objectclass", "computer"},
					{"hn", name},
					{"system", "linux redhat"},
					{"cpucount", cpus[rng.Intn(len(cpus))]},
					{"memsize", mems[rng.Intn(len(mems))]},
					{"load5", fmt.Sprintf("%d.%d", rng.Intn(4), rng.Intn(10))},
					{"rack", fmt.Sprintf("r%d", rack)},
				},
			},
		}
	}
	return out
}

func grisNode(leaf int, hosts []host) nodeSpec {
	n := nodeSpec{Kind: "gris", Name: fmt.Sprintf("gris.s%d", leaf),
		Suffix: fmt.Sprintf("ou=s%d, %s", leaf, gridSuffix), CacheTTLSec: 3600}
	for _, h := range hosts {
		if h.leaf == leaf {
			n.Entries = append(n.Entries, h.spec)
		}
	}
	return n
}

// buildWorkload generates the named workload from seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "enquiry-point":
		return enquiryPoint(rng, seed), nil
	case "discover-unique":
		return discover(rng, seed, name, uniqueTTL, false), nil
	case "discover-hot":
		return discover(rng, seed, name, hotTTL, true), nil
	case "register-storm":
		return registerStorm(rng, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// streamRNG derives an independent generator per stream from the one seed.
func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream) + 1))
}

// ---- enquiry-point ---------------------------------------------------------

type pointStream struct {
	rng   *rand.Rand
	hosts []host
}

func (s *pointStream) next() op {
	h := s.hosts[s.rng.Intn(len(s.hosts))]
	return op{Base: "ou=s0, " + gridSuffix, Scope: 2,
		Filter: fmt.Sprintf("(&(objectclass=computer)(hn=%s))", h.name),
		Want:   1, Sum: h.sum, VO: -1}
}

func enquiryPoint(rng *rand.Rand, seed int64) *workload {
	hosts := makeHosts(rng, 1)
	w := &workload{name: "enquiry-point", nodes: []nodeSpec{grisNode(0, hosts)},
		warmup: 250,
		params: map[string]any{"hosts": hostsTotal, "entries_per_search": 1, "gris_cache_ttl_s": 3600}}
	for c := 0; c < 2; c++ {
		w.search = append(w.search, &pointStream{rng: streamRNG(seed, c), hosts: hosts})
	}
	return w
}

// ---- discover-unique / discover-hot ---------------------------------------

// rackOracle is the expected answer to "all hosts of rack r".
type rackOracle struct {
	want [rackCount]int
	sum  [rackCount]uint64
}

func newRackOracle(hosts []host) *rackOracle {
	o := &rackOracle{}
	for _, h := range hosts {
		o.want[h.rack]++
		o.sum[h.rack] += h.sum
	}
	return o
}

type uniqueStream struct {
	rng    *rand.Rand
	oracle *rackOracle
	conn   int
	n      int
}

func (s *uniqueStream) next() op {
	r := s.rng.Intn(rackCount)
	// The exclusion term never matches (no host has a jobid) but makes the
	// normalized cache key new on every request; conn keeps the two
	// connections' terms disjoint.
	job := s.n*2 + s.conn
	s.n++
	return op{Base: gridSuffix, Scope: 2,
		Filter: fmt.Sprintf("(&(objectclass=computer)(rack=r%d)(!(jobid=%d)))", r, job),
		Want:   s.oracle.want[r], Sum: s.oracle.sum[r], VO: -1}
}

var hotAttrSets = [][]string{
	nil,
	{"hn"},
	{"hn", "load5"},
	{"hn", "cpucount", "memsize"},
}

type hotStream struct {
	zipf    *rand.Zipf
	queries []op
}

func (s *hotStream) next() op { return s.queries[s.zipf.Uint64()] }

func discover(rng *rand.Rand, seed int64, name string, ttl time.Duration, hot bool) *workload {
	hosts := makeHosts(rng, leafCount)
	w := &workload{name: name, warmup: 100}
	for leaf := 0; leaf < leafCount; leaf++ {
		w.nodes = append(w.nodes, grisNode(leaf, hosts))
	}
	perMid := leafCount / midCount
	for m := 0; m < midCount; m++ {
		w.nodes = append(w.nodes, nodeSpec{Kind: "giis", Name: fmt.Sprintf("giis.mid%d", m), Suffix: gridSuffix})
		for leaf := m * perMid; leaf < (m+1)*perMid; leaf++ {
			w.regs = append(w.regs, regSpec{Target: leafCount + m, Node: leaf, MDSType: "gris",
				Suffix: w.nodes[leaf].Suffix, ValidFor: time.Hour, Ident: -1})
		}
	}
	top := leafCount + midCount
	w.nodes = append(w.nodes, nodeSpec{Kind: "giis", Name: "giis.top", Suffix: gridSuffix,
		QueryCache: true, QueryCacheTTLMs: int(ttl / time.Millisecond), QueryCacheMax: topoQCacheMx})
	for m := 0; m < midCount; m++ {
		w.regs = append(w.regs, regSpec{Target: top, Node: leafCount + m, MDSType: "giis",
			Suffix: gridSuffix, ValidFor: time.Hour, Ident: -1})
	}
	w.target = top
	w.params = map[string]any{"hosts": hostsTotal, "leaves": leafCount, "mids": midCount,
		"entries_per_search": hostsTotal / rackCount, "qcache_max": topoQCacheMx,
		"qcache_ttl_ms": int(ttl / time.Millisecond)}

	oracle := newRackOracle(hosts)
	for c := 0; c < 2; c++ {
		if !hot {
			w.search = append(w.search, &uniqueStream{rng: streamRNG(seed, c), oracle: oracle, conn: c})
			continue
		}
		// Query q asks for rack q%10 with attribute selection q%4, hottest
		// first. The ranking is the same for every seed, so the mix of
		// reply sizes is too; the seed only orders the draws.
		queries := make([]op, hotQueries)
		for q := range queries {
			r := q % rackCount
			queries[q] = op{Base: gridSuffix, Scope: 2,
				Filter: fmt.Sprintf("(&(objectclass=computer)(rack=r%d))", r),
				Attrs:  hotAttrSets[q%len(hotAttrSets)],
				Want:   oracle.want[r], Sum: oracle.sum[r], VO: -1}
		}
		w.search = append(w.search, &hotStream{
			zipf:    rand.NewZipf(streamRNG(seed, c), hotZipfS, 1, hotQueries-1),
			queries: queries})
	}
	if hot {
		w.params["queries"] = hotQueries
		w.params["zipf_s"] = hotZipfS
	}
	return w
}

// ---- register-storm --------------------------------------------------------

func providerURL(i int) string { return fmt.Sprintf("ldap://p%d.grid.example:2135", i) }

// providerSuffix sits two levels below the GIIS suffix, so a one-level
// search at the suffix never chains to the provider.
func providerSuffix(i int) string { return fmt.Sprintf("hn=p%d, ou=providers, %s", i, gridSuffix) }

type voStream struct{ rng *rand.Rand }

func (s *voStream) next() op {
	vo := s.rng.Intn(voCount)
	return op{Base: gridSuffix, Scope: 1,
		Filter: fmt.Sprintf("(&(objectclass=mdsservice)(vo=vo%d))", vo), VO: vo}
}

// regStream is the provider population's refresh schedule: stayers refresh
// round robin (one full cycle every len(stayers)/registerRate seconds), and
// every rotateEvery-th send a new provider joins the VO of a leaver.
type regStream struct {
	stayers []int
	leavers []int
	n       int
	cursor  int
}

func (s *regStream) next() op {
	s.n++
	if s.n%rotateEvery == 0 {
		join := s.n/rotateEvery - 1
		return registerOp(providers+join, s.leavers[join%len(s.leavers)]%voCount)
	}
	id := s.stayers[s.cursor%len(s.stayers)]
	s.cursor++
	return registerOp(id, id%voCount)
}

func registerOp(id, vo int) op {
	return op{Ident: id, URL: providerURL(id),
		RegVO: fmt.Sprintf("vo%d", vo), Suffix: providerSuffix(id), ValidFor: registerTTL, VO: vo}
}

func registerStorm(rng *rand.Rand, seed int64) *workload {
	w := &workload{name: "register-storm", warmup: 100,
		nodes: []nodeSpec{{Kind: "giis", Name: "giis.vo", Suffix: gridSuffix}},
		params: map[string]any{"providers": providers, "vos": voCount, "register_per_s": registerRate,
			"register_ttl_s": int(registerTTL / time.Second), "leavers": leaverCount,
			"rotate_every": rotateEvery, "entries_per_search": providers / voCount}}
	order := rng.Perm(providers)
	rs := &regStream{leavers: order[:leaverCount], stayers: order[leaverCount:]}
	w.idents = newIdentTable()
	isLeaver := make(map[int]int, leaverCount)
	for k, id := range rs.leavers {
		isLeaver[id] = k
	}
	for i := 0; i < providers; i++ {
		valid := registerTTL
		if k, ok := isLeaver[i]; ok {
			// Leavers were last refreshed almost a TTL ago: they lapse one
			// by one through the run and are never refreshed again.
			valid = 6*time.Second + time.Duration(k)*500*time.Millisecond
		}
		w.regs = append(w.regs, regSpec{Target: 0, Node: -1, URL: providerURL(i), MDSType: "gris",
			VO: fmt.Sprintf("vo%d", i%voCount), Suffix: providerSuffix(i), ValidFor: valid, Ident: i})
	}
	w.register = rs
	w.search = []opStream{nil, &voStream{rng: streamRNG(seed, 1)}}
	return w
}
