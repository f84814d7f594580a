package ldap

import (
	"net"
	"strings"
	"testing"
	"time"

	"mds2/internal/obs"
	"mds2/internal/softstate"
)

// startObsServer serves a populated store with the given observability
// hookup (either may be nil) and returns a connected client.
func startObsServer(t testing.TB, reg *obs.Registry, tracer *obs.Tracer, entries int) *Client {
	t.Helper()
	store := newStoreHandler()
	for i := 0; i < entries; i++ {
		dn := MustParseDN("o=grid").ChildAVA("hn", "h"+strings.Repeat("x", i%7))
		e := NewEntry(dn.ChildAVA("n", string(rune('a'+i%26)))).
			Add("objectclass", "computer").
			Add("load5", "0.5")
		res := store.Add(nil, &AddRequest{Entry: e})
		if res.Code != ResultSuccess && res.Code != ResultEntryAlreadyExists {
			t.Fatalf("seed add: %+v", res)
		}
	}
	srv := NewServer(store)
	srv.Obs = reg
	srv.Tracer = tracer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSearchTraceControl(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(nil, 0)
	c := startObsServer(t, reg, tracer, 8)

	res, err := c.SearchWith(&SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=computer)"),
	}, []Control{NewTraceControl("", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := TraceSpans(res.DoneControls)
	if !ok {
		t.Fatalf("no trace-spans control in %+v", res.DoneControls)
	}
	if ex.Op != "search" || ex.ID == "" || ex.Depth != 0 {
		t.Errorf("export = %+v", ex)
	}
	names := map[string]bool{}
	for _, ch := range ex.Spans.Children {
		names[ch.Name] = true
	}
	if !names["queue"] || !names["encode+write"] {
		t.Errorf("span children missing: %+v", ex.Spans.Children)
	}
	// The server recorded the trace locally too.
	recent := tracer.Recent()
	if len(recent) != 1 || recent[0].ID != ex.ID {
		t.Errorf("recent = %+v", recent)
	}
	// And the per-op instruments moved.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"ldap_search_duration_ns_count", "ldap_inflight_ops", "ldap_write_batch_bytes_count"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %s:\n%s", want, out)
		}
	}
}

// A server with no tracer still reports spans when the request asks for
// them: child hops of a traced chain run untraced servers all the time.
func TestUntracedServerReportsSpansOnRequest(t *testing.T) {
	c := startObsServer(t, nil, nil, 4)
	res, err := c.SearchWith(&SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=*)"),
	}, []Control{NewTraceControl("up-42", 1)})
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := TraceSpans(res.DoneControls)
	if !ok {
		t.Fatal("no trace-spans control")
	}
	if ex.ID != "up-42" || ex.Depth != 1 {
		t.Errorf("export = %+v", ex)
	}
}

// Without the request control a traced server records locally but does not
// spend response bytes on spans.
func TestTracedServerOmitsSpansWithoutControl(t *testing.T) {
	tracer := obs.NewTracer(nil, 0)
	c := startObsServer(t, nil, tracer, 4)
	res, err := c.Search(&SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter: MustParseFilter("(objectclass=*)"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := TraceSpans(res.DoneControls); ok {
		t.Error("spans control must not attach without the request control")
	}
	if len(tracer.Recent()) != 1 {
		t.Errorf("recent = %d", len(tracer.Recent()))
	}
}

// TestDisabledObsZeroAllocs pins the disabled-path contract: every
// instrument call the hot path makes against nil recorders allocates
// nothing.
func TestDisabledObsZeroAllocs(t *testing.T) {
	var c *obs.Counter
	var g *obs.Gauge
	var h *obs.Histogram
	var sp *obs.Span
	var tr *obs.Trace
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Inc()
		g.Dec()
		h.Observe(time.Millisecond)
		h.ObserveValue(512)
		child := sp.Child("backend")
		child.SetNote("hit")
		child.End()
		sp.AddTimed("encode+write", time.Millisecond, "")
		tr.Root().Child("queue").End()
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled obs path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkObsDisabledOverhead measures a full streamed search over loopback
// with observability off and on; the disabled variant is the regression
// guard for "disabled means free" (compare ns/op and allocs/op).
func BenchmarkObsDisabledOverhead(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry, tracer *obs.Tracer) {
		c := startObsServer(b, reg, tracer, 16)
		req := &SearchRequest{
			BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=computer)"),
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Search(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil, nil) })
	b.Run("enabled", func(b *testing.B) {
		run(b, obs.NewRegistry(), obs.NewTracer(softstate.RealClock{}, 0))
	})
}
