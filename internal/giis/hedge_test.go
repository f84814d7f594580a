package giis

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"mds2/internal/ldap"
	"mds2/internal/obs"
)

// TestHedgeServesStaleIndexedSubtree: under the cache preset, a child whose
// indexed subtree has expired and whose refill is still out when the hedge
// fires is answered from the subtree the index still holds, and the answer
// is flagged partial by the hedge.
func TestHedgeServesStaleIndexedSubtree(t *testing.T) {
	g := newGrid(t)
	g.addChild("h1", "hn=h1, o=grid", 0, hostEntries("hn=h1, o=grid", "h1", "s1", 1)...)
	slow := g.addChild("h2", "hn=h2, o=grid", 0, hostEntries("hn=h2, o=grid", "h2", "s1", 2)...)
	d := g.directory("top", preset("cache", StrategyConfig{CacheTTL: time.Minute,
		Fanout: Fanout{HedgeDeadline: time.Second}}))
	op := &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)")}
	want, res := searchDNs(d, op)
	if len(want) != 2 || res.Code != ldap.ResultSuccess || isPartial(res) {
		t.Fatalf("filling search: %v, %+v", want, res)
	}

	g.clock.Advance(2 * time.Minute) // both subtrees expire
	release := make(chan struct{})
	slow.held.Store(&release)
	defer close(release)
	type answer struct {
		dns []string
		res ldap.Result
	}
	done := make(chan answer, 1)
	go func() {
		dns, res := searchDNs(d, op)
		done <- answer{dns, res}
	}()
	<-slow.arrived // the refill of h2's subtree is out
	var got answer
	for waiting := true; waiting; {
		select {
		case got = <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			g.clock.Advance(time.Second) // until the hedge the search arms fires
		}
	}
	slices.Sort(got.dns) // replies stream in the order they come
	slices.Sort(want)
	if !slices.Equal(got.dns, want) {
		t.Errorf("hedged search returned %v, want %v: the held child's stale subtree is resident", got.dns, want)
	}
	if !strings.Contains(got.res.Message, "hedge deadline") {
		t.Errorf("hedged search result %+v, want the hedge's partial diagnostic", got.res)
	}
}

// TestHedgedStragglerKeepsItsOwnTrace: a hop the hedge cut off finishes
// after its search returns, while the connection serves its next operation
// with the Request it recycled. The straggler's chain span stays in the
// trace of the search it belongs to: the next traced search on the
// connection holds no chain span of the straggler's.
func TestHedgedStragglerKeepsItsOwnTrace(t *testing.T) {
	g := newGrid(t)
	held := g.addChild("held", "hn=held, o=grid", 0, hostEntries("hn=held, o=grid", "held", "s1", 1)...)
	quick := g.addChild("quick", "hn=quick, o=grid", 0, hostEntries("hn=quick, o=grid", "quick", "s2", 1)...)
	top := g.directory("top", preset("chain", StrategyConfig{Fanout: Fanout{HedgeDeadline: time.Second}}))
	conn, err := g.network.Dial("client-node", "top-node:389")
	if err != nil {
		t.Fatal(err)
	}
	c := ldap.NewClient(conn)
	t.Cleanup(func() { c.Close() })
	search := func(base, traceID string) <-chan *ldap.SearchResult {
		out := make(chan *ldap.SearchResult, 1)
		go func() {
			res, err := c.SearchWith(&ldap.SearchRequest{BaseDN: base, Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter("(objectclass=computer)")},
				[]ldap.Control{ldap.NewTraceControl(traceID, 0)})
			if err != nil {
				t.Error(err)
			}
			out <- res
		}()
		return out
	}

	// Search 1 chains to both children: the hedge cuts it off while its op
	// to the held child is out, which makes that op the straggler.
	release := make(chan struct{})
	held.held.Store(&release)
	first := search("o=grid", "trace-1")
	<-held.arrived
	held.held.Store(nil)
	var res *ldap.SearchResult
	for waiting := true; waiting; {
		select {
		case res = <-first:
			waiting = false
		case <-time.After(time.Millisecond):
			g.clock.Advance(time.Second) // until the hedge search 1 arms fires
		}
	}
	if res == nil || !strings.Contains(res.Result.Message, "hedge deadline") {
		close(release)
		t.Fatalf("search 1: %+v; want the hedge to cut the held child off", res)
	}

	// Search 2, on the same connection, asks the quick child alone, and is
	// held there until the straggler has finished: its reply is in, and it
	// has given back its pooled connection, leaving search 2's own.
	hold := make(chan struct{})
	quick.held.Store(&hold)
	second := search("hn=quick, o=grid", "trace-2")
	<-quick.arrived // search 2's own hop
	close(release)
	for top.borrowed() > 1 {
		time.Sleep(time.Millisecond)
	}
	quick.held.Store(nil)
	close(hold)
	if res = <-second; res == nil {
		return
	}
	ex, ok := ldap.TraceSpans(res.DoneControls)
	if !ok {
		t.Fatal("search 2 returned no trace")
	}
	var chains []string
	for _, sp := range ex.Spans.Children {
		if strings.HasPrefix(sp.Name, "chain:") {
			chains = append(chains, sp.Name)
		}
	}
	if len(chains) != 1 || chains[0] != "chain:sim://quick-node:389" {
		t.Errorf("search 2's trace holds chain spans %v, want its own one:\n%s", chains, obs.FormatSpanTree(ex.Spans))
	}
}

// borrowed counts the references ops in flight hold on pooled connections.
func (s *Server) borrowed() int {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	n := 0
	for _, pe := range s.pool {
		n += pe.refs
	}
	return n
}

// TestHedgeBoundsColdDial: a pool miss is dialled off the search's
// goroutine, so a child whose connection is still being dialled when the
// hedge fires is cut off like a slow reply, and the result is flagged
// partial.
func TestHedgeBoundsColdDial(t *testing.T) {
	g := newGrid(t)
	g.addChild("h1", "hn=h1, o=grid", 0, hostEntries("hn=h1, o=grid", "h1", "s1", 1)...)
	g.addChild("h2", "hn=h2, o=grid", 0, hostEntries("hn=h2, o=grid", "h2", "s1", 1)...)
	gate := make(chan struct{})
	d := g.directory("top", preset("chain", StrategyConfig{Fanout: Fanout{HedgeDeadline: time.Second}}),
		func(c *Config) {
			dial := c.Dial
			c.Dial = func(url ldap.URL) (*ldap.Client, error) {
				if url.Address() == "h2-node:389" {
					<-gate // a dial that does not return
				}
				return dial(url)
			}
		})
	t.Cleanup(func() { close(gate) })
	w := &signalSink{sent: make(chan struct{}, 4)}
	done := make(chan ldap.Result, 1)
	go func() {
		done <- d.Search(&ldap.Request{Ctx: context.Background(), State: &ldap.ConnState{}},
			&ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
				Filter: ldap.MustParseFilter("(objectclass=computer)")}, w)
	}()
	<-w.sent // h1's host is through: only the held dial is left
	var res ldap.Result
	for waiting := true; waiting; {
		select {
		case res = <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			g.clock.Advance(time.Second) // until the hedge the search arms fires
		}
	}
	if got := dnsOf(w.entries); !slices.Equal(got, []string{"hn=h1, o=grid"}) {
		t.Errorf("hedged search returned %v, want h1's host alone", got)
	}
	if !strings.Contains(res.Message, "hedge deadline") {
		t.Errorf("hedged search result %+v, want the hedge's partial diagnostic", res)
	}
}

// signalSink is a sink that signals each entry it takes.
type signalSink struct {
	sink
	sent chan struct{}
}

func (s *signalSink) SendEntry(e *ldap.Entry, ctls ...ldap.Control) error {
	s.sink.SendEntry(e, ctls...)
	s.sent <- struct{}{}
	return nil
}
