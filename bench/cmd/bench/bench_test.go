package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"mds2/internal/obs"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// harness re-executes itself as the server process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		if err := serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench -serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 1, 1, 1, 1, 1, 1, 1, 1, 100}, 1}, // two wild slices do not move it
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]int64{5, 9}, 0.9); got != 9 {
		t.Errorf("percentile([5 9], .9) = %d, want 9", got)
	}
}

func TestSliceStats(t *testing.T) {
	// Two slices of one second; the second is twice as busy and slower.
	bounds := []int64{0, 1e9, 2e9}
	var samples []sample
	for i := 0; i < 10; i++ {
		samples = append(samples, sample{done: int64(i) * 1e8, lat: 1e6})
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, sample{done: 1e9 + int64(i)*5e7, lat: int64(i+1) * 1e6})
	}
	samples = append(samples, sample{done: 2e9 + 1, lat: 99e6}) // after the window: ignored
	st := sliceStats(samples, bounds, nil)
	if len(st) != 2 || st[0].n != 10 || st[1].n != 20 {
		t.Fatalf("slices = %+v, want 10 and 20 samples", st)
	}
	if st[0].perS != 10 || st[1].perS != 20 {
		t.Errorf("rates = %v, %v, want 10, 20", st[0].perS, st[1].perS)
	}
	if st[0].p50 != 1 || st[1].p50 != 10 || st[1].p90 != 18 {
		t.Errorf("latencies = %+v", st)
	}
	mv := overSlices(st, "1/s", func(s sliceStat) float64 { return s.perS })
	if mv.Value != 15 || mv.Samples != 30 || len(mv.Slices) != 2 {
		t.Errorf("overSlices = %+v, want median 15 of 2 slices, 30 samples", mv)
	}
}

func span(name string, start, dur int64, children ...*obs.SpanNode) *obs.SpanNode {
	return &obs.SpanNode{Name: name, StartNs: start, DurNs: dur, Children: children}
}

func sumSelf(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

func TestSelfTimes(t *testing.T) {
	t.Run("children cover part of the parent", func(t *testing.T) {
		// Driver root 1000; server root 800 centred at [100,900); queue
		// [100,150), backend [150,650), encode+write [800,900).
		srv := span("search", 0, 800,
			span("queue", 0, 50), span("backend:corpus", 50, 500), span("encode+write", 700, 100))
		got := selfTimes(1000, srv)
		want := map[string]int64{classClient: 200, classQueue: 50, classBackend: 500,
			classEncode: 100, classGrisSelf: 150}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s = %d, want %d (all: %v)", k, got[k], v, got)
			}
		}
		if sumSelf(got) != 1000 {
			t.Errorf("self times sum to %d, want the root's 1000", sumSelf(got))
		}
	})
	t.Run("overlapping siblings are charged once", func(t *testing.T) {
		// Two chain hops overlap on [200,500); encode+write overlaps the
		// tail of the second. Later-started spans win the overlap.
		remote := func(dur int64) *obs.SpanNode {
			n := span("search", 0, dur, span("backend:corpus", 0, dur/2))
			n.Remote = true
			return n
		}
		srv := span("search", 0, 1000,
			span("chain:ldap://a", 100, 400, remote(400)),
			span("chain:ldap://b", 200, 600, remote(600)),
			span("encode+write", 700, 300))
		got := selfTimes(1000, srv)
		if sumSelf(got) != 1000 {
			t.Fatalf("self times sum to %d, want 1000: %v", sumSelf(got), got)
		}
		if got[classEncode] != 300 {
			t.Errorf("encode = %d, want its full 300 (it started last)", got[classEncode])
		}
		// Hop a owns [100,200) only; hop b owns [200,700): 600 in all,
		// split between backend (first half of each hop) and gris self.
		if hops := got[classBackend] + got[classGrisSelf] + got[classChainTop]; hops != 600 {
			t.Errorf("hop time = %d, want 600: %v", hops, got)
		}
		if got[classGiisSelf] != 100 {
			t.Errorf("giis self = %d, want the uncovered [0,100)", got[classGiisSelf])
		}
	})
	t.Run("two hop levels", func(t *testing.T) {
		leaf := span("search", 0, 100, span("backend:corpus", 0, 40))
		leaf.Remote = true
		mid := span("search", 0, 300, span("chain:ldap://leaf", 50, 200, leaf))
		mid.Remote = true
		top := span("search", 0, 500, span("chain:ldap://mid", 50, 400, mid))
		got := selfTimes(600, top)
		if sumSelf(got) != 600 {
			t.Fatalf("self times sum to %d, want 600: %v", sumSelf(got), got)
		}
		want := map[string]int64{classClient: 100, classGiisSelf: 100 + 100, classChainTop: 100,
			classChainMid: 100, classGrisSelf: 60, classBackend: 40}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s = %d, want %d (all: %v)", k, got[k], v, got)
			}
		}
	})
	t.Run("a child longer than its parent is clipped", func(t *testing.T) {
		srv := span("search", 0, 100, span("queue", 50, 500))
		got := selfTimes(100, srv)
		if sumSelf(got) != 100 || got[classQueue] != 50 {
			t.Errorf("got %v, want queue clipped to 50 and a sum of 100", got)
		}
	})
}

// TestOpenLoopIntendedTime stalls a fake server on one send and checks that
// the sends behind it are late, keep their intended times, and so carry the
// stall in their latency.
func TestOpenLoopIntendedTime(t *testing.T) {
	const gap = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	start := time.Now().Add(gap)
	end := start.Add(30 * gap)
	type rec struct{ intended, sent, done time.Time }
	var recs []rec
	openLoop(start, end, gap, func(i int, intended time.Time) {
		r := rec{intended: intended, sent: time.Now()}
		if i == 5 {
			time.Sleep(stall) // the server stops answering for a while
		}
		r.done = time.Now()
		recs = append(recs, r)
	})
	if len(recs) != 30 {
		t.Fatalf("emitted %d sends, want 30 (a stall must not drop scheduled sends)", len(recs))
	}
	for i, r := range recs {
		if want := start.Add(time.Duration(i) * gap); !r.intended.Equal(want) {
			t.Fatalf("send %d intended %v, want %v", i, r.intended.Sub(start), want.Sub(start))
		}
		if r.sent.Before(r.intended) {
			t.Errorf("send %d left %v before it was due", i, r.intended.Sub(r.sent))
		}
	}
	// Send 6 was due 5ms after send 5 but could not leave until the stall
	// ended: measured from its intended time it waited ~55ms, measured from
	// its actual send it would look instant.
	fromIntended := recs[6].done.Sub(recs[6].intended)
	fromSent := recs[6].done.Sub(recs[6].sent)
	if fromIntended < stall-2*gap {
		t.Errorf("send 6 latency from intended time = %v, want about %v", fromIntended, stall-gap)
	}
	if fromSent > stall/2 {
		t.Errorf("send 6 took %v on the wire; the test's fake server only stalls send 5", fromSent)
	}
	late := 0
	for _, r := range recs {
		if r.sent.Sub(r.intended) > lateAfter {
			late++
		}
	}
	if late < 8 {
		t.Errorf("%d late sends, want the ~11 queued behind the stall", late)
	}
}

// opBytes renders everything a seed generates for one workload.
func opBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(w.nodes); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%+v\n", w.regs)
	streams := append([]opStream{w.register}, w.search...)
	for _, s := range streams {
		if s == nil {
			continue
		}
		for i := 0; i < 500; i++ {
			fmt.Fprintln(&b, s.next())
		}
	}
	return b.Bytes()
}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	for _, name := range workloadNames() {
		a, b, c := opBytes(t, name, 7), opBytes(t, name, 7), opBytes(t, name, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated identical inputs", name)
		}
	}
}

func TestOraclesHaveFixedResultSizes(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for name, want := range map[string]int{"enquiry-point": 1, "discover-unique": 200, "discover-hot": 200} {
			w, err := buildWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if o := w.search[0].next(); o.Want != want {
					t.Fatalf("%s seed %d: op %d expects %d entries, want %d", name, seed, i, o.Want, want)
				}
			}
		}
	}
}

func TestIdentTable(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tab := newIdentTable()
	tab.sending("ldap://a", 3, at(0), at(60000))
	tab.acked("ldap://a", at(1), at(60000))
	tab.sending("ldap://b", 3, at(10), at(2000)) // lapses at 2s
	tab.acked("ldap://b", at(11), at(2000))
	tab.sending("ldap://c", 3, at(100), at(60000)) // in flight, never acked

	if err := tab.check(3, []string{"ldap://a", "ldap://b"}, at(200), at(210)); err != nil {
		t.Errorf("complete answer rejected: %v", err)
	}
	if err := tab.check(3, []string{"ldap://a", "ldap://b", "ldap://c"}, at(200), at(210)); err != nil {
		t.Errorf("an in-flight registration may already be visible: %v", err)
	}
	if err := tab.check(3, []string{"ldap://b"}, at(200), at(210)); err == nil || !strings.Contains(err.Error(), "misses") {
		t.Errorf("missing acked registration not reported: %v", err)
	}
	if err := tab.check(3, []string{"ldap://a"}, at(2500), at(2510)); err != nil {
		t.Errorf("a lapsed registration may be gone: %v", err)
	}
	if err := tab.check(3, []string{"ldap://a", "ldap://b"}, at(2500), at(2510)); err != nil {
		t.Errorf("a registration lapsed under a second ago may linger: %v", err)
	}
	if err := tab.check(3, []string{"ldap://a", "ldap://b"}, at(3500), at(3510)); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale answer not reported: %v", err)
	}
	if err := tab.check(3, []string{"ldap://a", "ldap://zzz"}, at(200), at(210)); err == nil {
		t.Error("unknown provider accepted")
	}
	if err := tab.check(4, []string{"ldap://a"}, at(200), at(210)); err == nil {
		t.Error("provider listed under the wrong VO accepted")
	}
}

// TestChildStartStop checks that a stopped server process is gone and its
// listeners with it.
func TestChildStartStop(t *testing.T) {
	ch, err := startChild()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorkload("enquiry-point", 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := ch.build(w.nodes, false)
	if err != nil {
		ch.stop()
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addrs[0], time.Second)
	if err != nil {
		ch.stop()
		t.Fatalf("tier is not listening on %s: %v", addrs[0], err)
	}
	conn.Close()
	st, err := ch.stats()
	if err != nil || st.Procs != serverProcs() {
		t.Errorf("stats = %+v, %v; want GOMAXPROCS %d", st, err, serverProcs())
	}
	if err := ch.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if ch.cmd.ProcessState == nil || !ch.cmd.ProcessState.Exited() {
		t.Errorf("server process has not exited: %v", ch.cmd.ProcessState)
	}
	if conn, err := net.DialTimeout("tcp", addrs[0], time.Second); err == nil {
		conn.Close()
		t.Errorf("listener %s outlived its server process", addrs[0])
	}
}

// TestSmoke runs every workload for at least 300 verified operations
// through a real server process, in -short mode too.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		w, err := generate(name, options{seed: 3, seconds: 10})
		if err != nil {
			t.Fatal(err)
		}
		w.warmup = 150
		s, took, err := setup(w, false, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := s.attempted.Load(); n < 300 || s.failed.Load() != 0 {
			t.Errorf("%s: attempted %d, failed %d; want at least 300 and none", name, n, s.failed.Load())
		}
		if took <= 0 {
			t.Errorf("%s: set-up time %v", name, took)
		}
		if err := s.close(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCheckCatchesMissingEntry gives each topology one entry too few; the
// verified warm-up must refuse it.
func TestCheckCatchesMissingEntry(t *testing.T) {
	for _, name := range workloadNames() {
		w, err := generate(name, options{seed: 3, seconds: 10, dropEntry: true})
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := setup(w, false, nil)
		if err == nil {
			s.close()
			t.Errorf("%s: the check passed a topology with an entry missing", name)
			continue
		}
		if !strings.Contains(err.Error(), "check failed") {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

// TestTracedWindow drives a short traced window end to end: every search
// must come back with a span tree whose self times sum to the driver root.
func TestTracedWindow(t *testing.T) {
	w, err := generate("discover-unique", options{seed: 5, seconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	w.warmup = 5
	s, _, err := setup(w, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	win, err := s.window(300*time.Millisecond, true)
	if cerr := s.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(win.traces) == 0 || len(win.traces) != len(win.search) {
		t.Fatalf("%d span trees for %d searches", len(win.traces), len(win.search))
	}
	if len(win.bounds) != sliceCount+1 || len(win.stats) != sliceCount+1 {
		t.Errorf("%d bounds and %d samples, want %d of each", len(win.bounds), len(win.stats), sliceCount+1)
	}
	for _, tr := range win.traces {
		got := selfTimes(tr.RootNs, tr.Server.Spans)
		if sumSelf(got) != tr.RootNs {
			t.Fatalf("self times sum to %d, driver root is %d: %v", sumSelf(got), tr.RootNs, got)
		}
		if got[classChainTop] == 0 || got[classChainMid] == 0 || got[classBackend] == 0 {
			t.Fatalf("a 3-hop search is missing a hop level: %v", got)
		}
	}
	if s.failed.Load() != 0 {
		t.Errorf("traced searches failed: %v", s.firstErr)
	}
}

func TestManifestMatchesCheckedIn(t *testing.T) {
	got, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifest(defaultSeconds); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if seen[m.Name] {
				t.Errorf("metric name %s is used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
}
