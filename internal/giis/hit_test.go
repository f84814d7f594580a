package giis

import (
	"bufio"
	"net"
	"testing"
	"time"

	"mds2/internal/ber"
	"mds2/internal/ldap"
)

// hitConn serves a directory over one in-memory connection whose peer is
// as cheap as a client can be: it writes one pre-encoded search request and
// reads the reply's frames into one reused buffer, keeping nothing — so what
// a search allocates is the server's.
type hitConn struct {
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
	req  []byte
}

func serveHits(tb testing.TB, d *Server, req *ldap.SearchRequest) *hitConn {
	tb.Helper()
	a, b := net.Pipe()
	srv := ldap.NewServer(d)
	served := make(chan struct{})
	go func() {
		srv.ServeConn(a)
		close(served)
	}()
	tb.Cleanup(func() {
		b.Close()
		<-served
	})
	return &hitConn{conn: b, r: bufio.NewReaderSize(b, 64<<10),
		req: (&ldap.Message{ID: 1, Op: req}).Encode()}
}

// search runs the request once and counts the result entries; ok reports a
// successful done message.
func (c *hitConn) search() (entries int, ok bool) {
	if _, err := c.conn.Write(c.req); err != nil {
		return entries, false
	}
	for {
		frame, err := ber.ReadFrame(c.r, c.buf)
		if err != nil {
			return entries, false
		}
		c.buf = frame
		op, rest := protocolOp(frame)
		switch op {
		case 0x64: // [APPLICATION 4] SearchResultEntry
			entries++
		case 0x65: // [APPLICATION 5] SearchResultDone: ENUMERATED resultCode first
			return entries, len(rest) >= 3 && rest[0] == 0x0a && rest[1] == 1 && rest[2] == 0
		default:
			return entries, false
		}
	}
}

// protocolOp returns the tag of an LDAPMessage frame's operation and the
// operation's contents, skipping the envelope and the message ID.
func protocolOp(frame []byte) (byte, []byte) {
	skip := func(b []byte) []byte { // past one header
		if len(b) < 2 {
			return nil
		}
		if b[1] < 0x80 {
			return b[2:]
		}
		n := int(b[1] & 0x7f)
		if len(b) < 2+n {
			return nil
		}
		return b[2+n:]
	}
	body := skip(frame) // inside the SEQUENCE
	if len(body) < 2 || body[0] != 0x02 || len(body) < 2+int(body[1]) {
		return 0, nil
	}
	op := body[2+int(body[1]):] // past the message ID
	if len(op) == 0 {
		return 0, nil
	}
	return op[0], skip(op)
}

// hitRig is a chaining directory with the query cache on over two mid-level
// directories, each over one GRIS of hosts entries, served over a hitConn
// and primed, so every later search is a cache hit on both hops.
func hitRig(tb testing.TB, hosts int, attrs []string) *hitConn {
	tb.Helper()
	h := newHierarchy(tb, 2, 2, hosts, withQueryCache(time.Hour))
	c := serveHits(tb, h.top, &ldap.SearchRequest{BaseDN: "o=grid", Scope: ldap.ScopeWholeSubtree,
		Filter: ldap.MustParseFilter("(objectclass=computer)"), Attributes: attrs})
	for i := 0; i < 100; i++ { // prime; decode what projection reads; grow the buffers
		if n, ok := c.search(); !ok || n != 2*hosts {
			tb.Fatalf("search %d: %d entries (ok %v), want %d", i, n, ok, 2*hosts)
		}
	}
	if s := h.top.QueryCache().Stats(); s.Keys != 2 || s.Misses != 2 {
		tb.Fatalf("query cache after priming: %+v, want 2 keys filled once each", s)
	}
	return c
}

// TestQueryCacheHitAllocationBudget: a query-cache hit costs what sending
// its bytes costs. A search both of whose hops hit, with a selection the
// directory chains in another spelling (so every entry is projected), makes
// at most 30 allocations in the server — reading and scanning the request,
// the operation's context and bookkeeping — and the same number for 20
// entries as for 200: nothing per entry, and no goroutine per search or per
// hop.
func TestQueryCacheHitAllocationBudget(t *testing.T) {
	if !allocsExact {
		t.Skip("allocation counts are not the program's under -race or mdsdebug")
	}
	attrs := []string{"hn", "cpucount", "memsize"} // chained as cpucount,hn,memsize
	var per [2]float64
	for i, hosts := range []int{10, 100} {
		c := hitRig(t, hosts, attrs)
		per[i] = testing.AllocsPerRun(300, func() {
			if n, ok := c.search(); !ok || n != 2*hosts {
				t.Fatalf("hit: %d entries (ok %v), want %d", n, ok, 2*hosts)
			}
		})
	}
	t.Logf("allocations per hit search: %.1f at 20 entries, %.1f at 200", per[0], per[1])
	if per[1] > 30 {
		t.Errorf("a hit search of 200 entries makes %.1f allocations, budget 30", per[1])
	}
	if per[1]-per[0] > 1 {
		t.Errorf("a hit search allocates per entry: %.1f at 20 entries, %.1f at 200", per[0], per[1])
	}
}

// BenchmarkQueryCacheHit: a chaining directory answering a 200-entry search
// from its query cache, with the selection chained as the client spelled it
// (canonical: the entries go out as cached) or respelled (non-canonical:
// the writer projects every entry).
func BenchmarkQueryCacheHit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		attrs []string
	}{
		{"canonical", []string{"cpucount", "hn", "memsize"}},
		{"non-canonical", []string{"hn", "cpucount", "memsize"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := hitRig(b, 100, bc.attrs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, ok := c.search(); !ok || n != 200 {
					b.Fatalf("hit: %d entries (ok %v)", n, ok)
				}
			}
		})
	}
}
