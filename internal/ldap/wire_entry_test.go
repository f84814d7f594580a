package ldap

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mds2/internal/ber"
	"mds2/internal/softstate"
)

// scanFrame is the read loop's wire path on one result-entry frame, without
// the pending operation lookup: isEntry reports a frame whose operation is a
// SearchResultEntry, err one the scanner refuses or a name the DN parser
// does.
func scanFrame(w *wireEntries, frame []byte) (id int64, e *Entry, isEntry bool, err error) {
	var s scanner
	id, op, controls := s.envelope(frame)
	if s.err != nil || op[0] != idSearchEntry {
		return 0, nil, false, s.err
	}
	if dn, attrs := s.searchEntry(op); s.err != nil {
		err = s.err
	} else if _, err = scanControls(controls); err == nil {
		e, err = w.next(dn, attrs, false)
	}
	return id, e, true, err
}

func sevenAttrEntry(i int) *Entry {
	return NewEntry(MustParseDN(fmt.Sprintf("hn=h%d, ou=s%d, o=grid", i, i%8))).
		Add("objectclass", "computer").
		Add("hn", fmt.Sprintf("h%d", i)).
		Add("system", "linux redhat").
		Add("cpucount", "4").
		Add("memsize", "2048").
		Add("load5", "1.7").
		Add("rack", fmt.Sprintf("r%d", i%10))
}

func entryFrame(id int64, e *Entry) []byte {
	return (&Message{ID: id, Op: &SearchResultEntry{Entry: e}}).Encode()
}

// hostileFrames are the inputs a relay must neither accept nor forward.
func hostileFrames() map[string][]byte {
	good := entryFrame(7, sevenAttrEntry(1))
	// entry wraps one attribute's value set into a SearchResultEntry frame.
	entry := func(dn string, set *ber.Packet) []byte {
		return ber.Marshal(ber.NewSequence().Append(ber.NewInteger(7),
			ber.NewConstructed(ber.ClassApplication, appSearchEntry).Append(
				ber.NewOctetString(dn),
				ber.NewSequence().Append(ber.NewSequence().Append(ber.NewOctetString("a"), set)))))
	}
	deep := ber.NewSet().Append(ber.NewOctetString("v"))
	for i := 0; i < ber.MaxDepth; i++ {
		deep = ber.NewSet().Append(deep)
	}
	return map[string][]byte{
		"truncated":              good[:len(good)-3],
		"trailing bytes":         append(append([]byte(nil), good...), 0),
		"inner length overrun":   {idSequence, 10, idInteger, 1, 7, idSearchEntry, 0x7f, idOctetString, 3, 'o', '=', 'g'},
		"missing attribute list": {idSequence, 10, idInteger, 1, 7, idSearchEntry, 5, idOctetString, 3, 'o', '=', 'g'},
		"indefinite envelope":    append([]byte{idSequence, 0x80}, good[3:]...),
		"indefinite set": {idSequence, 25, idInteger, 1, 7, idSearchEntry, 20, idOctetString, 3, 'o', '=', 'g',
			idSequence, 13, idSequence, 11, idOctetString, 1, 'a', idSet, 0x80, idOctetString, 1, 'v', 0, 0},
		"oversized":          {idSequence, 0x84, 0x7f, 0xff, 0xff, 0xff, idInteger, 1, 7},
		"length of length 5": {idSequence, 0x85, 0, 0, 0, 0, 2, idInteger, 1, 7},
		"nested too deep":    entry("o=g", deep),
		"bad name":           entry("=nameless", ber.NewSet().Append(ber.NewOctetString("v"))),
	}
}

// entrySeeds are result entry frames: every corpus message, entries with
// names in and out of canonical form, hostile frames, and long-form lengths.
func entrySeeds() [][]byte {
	var seeds [][]byte
	for _, m := range wireCorpus() {
		seeds = append(seeds, m.Encode())
	}
	for i := 0; i < 4; i++ {
		seeds = append(seeds, entryFrame(int64(i), sevenAttrEntry(i)))
	}
	// Names that parse but are not in canonical form, and three that are —
	// one of them escaped, which the byte rules leave to the rendering.
	for _, dn := range []string{"hn=h1,o=grid", "hn=h1 , o=grid", "hn=h1,  o=grid", " hn=h1, o=grid",
		"hn=h1, o=grid\t", "hn = h1, o=grid", "cn=a +uid=1", "cn=a\\,b, o=grid", "cn=a=b, o=grid",
		"cn=a\tb, o=grid", "cn=a+uid=1, o=grid", ""} {
		seeds = append(seeds, ber.Marshal(ber.NewSequence().Append(ber.NewInteger(7),
			ber.NewConstructed(ber.ClassApplication, appSearchEntry).Append(
				ber.NewOctetString(dn), ber.NewSequence()))))
	}
	for _, frame := range hostileFrames() {
		seeds = append(seeds, frame)
	}
	// Valid BER, not canonical: long-form lengths where short would do.
	return append(seeds, []byte{idSequence, 0x81, 16, idInteger, 1, 1, idSearchEntry, 0x81, 10,
		idOctetString, 3, 'o', '=', 'g', idSequence, 0x82, 0, 0})
}

// FuzzWireEntry replays the result entry seeds through FuzzScanMessage's
// property.
func FuzzWireEntry(f *testing.F) {
	for _, frame := range entrySeeds() {
		f.Add(frame)
	}
	f.Fuzz(checkScan)
}

// TestWireScannerRefuses: a GIIS must not forward bytes it did not validate.
// Each hostile frame is refused by the scanner, and by the oracle too — and
// end to end, a connection that receives one fails the search instead of
// relaying anything.
func TestWireScannerRefuses(t *testing.T) {
	for name, frame := range hostileFrames() {
		var w wireEntries
		if _, _, isEntry, err := scanFrame(&w, frame); isEntry && err == nil {
			t.Errorf("%s: wire path accepted % x", name, frame)
		}
		if _, err := ScanMessage(frame); err == nil {
			t.Errorf("%s: scanner accepted % x", name, frame)
		}
		if treeDecode(frame) != nil {
			t.Errorf("%s: oracle accepted % x", name, frame)
		}
		client, server := net.Pipe()
		c := NewClient(client)
		go func() {
			// One good entry, then the hostile frame, for whatever message ID
			// the search was given.
			buf := make([]byte, 4096)
			n, _ := server.Read(buf)
			req := treeDecode(buf[:n])
			if req == nil {
				return
			}
			server.Write(entryFrame(req.ID, sevenAttrEntry(1)))
			server.Write(frame)
			server.Close()
		}()
		res, err := c.SearchWith(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil)
		if err == nil {
			t.Errorf("%s: search succeeded with %d entries", name, len(res.Entries))
		}
		c.Close()
		server.Close()
	}
}

// discardSearchWriter is the server's search writer over a connection whose
// far end discards what it is sent. Its idle timer runs on a clock that
// never moves, so pending frames stay in the buffer for a test to read, and
// drain once they pass flushThreshold, as they do mid-search.
func discardSearchWriter(t *testing.T, id int64) *connSearchWriter {
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close() })
	go io.Copy(io.Discard, far)
	w := newConnWriter(near, softstate.NewFakeClock(), nil)
	return &connSearchWriter{conn: &serverConn{w: w}, id: id}
}

// TestWireRelayAllocationBudget: what a chaining directory does per relayed
// entry — scan the frame, build the wire-backed entry, render its sort key,
// send it through the server's search writer — stays within 0.5
// allocations for a 7-attribute entry: its shares of the entry and name
// slabs and of the sort, the name parsed where it lies (the decode → Entry
// → clone → re-encode path it replaces took about 57).
func TestWireRelayAllocationBudget(t *testing.T) {
	const batch = 64
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = entryFrame(9, sevenAttrEntry(i))
	}
	var w wireEntries
	entries := make([]*Entry, batch)
	sw := discardSearchWriter(t, 9)
	perBatch := testing.AllocsPerRun(50, func() {
		for i, frame := range frames {
			_, e, ok, err := scanFrame(&w, frame)
			if !ok || err != nil {
				t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
			}
			entries[i] = e
		}
		SortEntries(entries)
		for _, e := range entries {
			// What the GIIS searchContext.send does per entry.
			if err := sw.SendEntry(e.Project(nil)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := perBatch / batch; per > 0.5 {
		t.Errorf("relaying one 7-attribute entry costs %.2f allocations, budget 0.5", per)
	}
	// The tree path, for scale.
	out := make([]byte, 0, 1024)
	tree := testing.AllocsPerRun(50, func() {
		m := treeDecode(frames[0])
		e := m.Op.(*SearchResultEntry).Entry
		_ = e.DN.Normalize()
		out = (&Message{ID: 9, Op: &SearchResultEntry{Entry: e.Select(nil)}}).AppendTo(out[:0])
	})
	t.Logf("allocations per relayed entry: wire %.1f, decode → clone → re-encode %.1f", perBatch/batch, tree)
}

// TestSendEntryZeroAllocs: the server's search writer encodes a result
// entry — relayed wire bytes or a store's decoded entry — straight into the
// connection's pending buffer, allocating nothing, and sends the same bytes
// the Message encoder does.
func TestSendEntryZeroAllocs(t *testing.T) {
	var w wireEntries
	_, relayed, ok, err := scanFrame(&w, entryFrame(9, sevenAttrEntry(3)))
	if !ok || err != nil || relayed.name == nil {
		t.Fatalf("scan: ok=%v err=%v, name kept %v", ok, err, relayed != nil && relayed.name != nil)
	}
	for name, e := range map[string]*Entry{"wire-backed": relayed, "decoded": sevenAttrEntry(3)} {
		sw := discardSearchWriter(t, 9)
		send := func() {
			if err := sw.SendEntry(e); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ { // grow the writer's two drain buffers
			send()
		}
		if n := testing.AllocsPerRun(1000, send); n != 0 {
			t.Errorf("%s entry: %.0f allocations per SendEntry, want 0", name, n)
		}
		ww := sw.conn.w
		ww.buf = ww.buf[:0]
		if send(); !bytes.Equal(ww.buf, entryFrame(9, sevenAttrEntry(3))) {
			t.Errorf("%s entry: writer sent\n% x\nwant\n% x", name, ww.buf, entryFrame(9, sevenAttrEntry(3)))
		}
	}
}

// TestWireEntryConcurrentMaterialise: readers racing to look inside one
// shared wire-backed entry all end up with the one published decode.
func TestWireEntryConcurrentMaterialise(t *testing.T) {
	var w wireEntries
	_, e, ok, err := scanFrame(&w, entryFrame(3, sevenAttrEntry(5)))
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	const readers = 8
	got := make([][]Attribute, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.First("hn") != "h5" || len(e.Project([]string{"rack", "hn"}).Attributes()) != 2 {
				t.Errorf("reader %d: wrong view of %s", r, e)
			}
			got[r] = e.Attributes()
			if !bytes.Equal(entryFrame(3, e), entryFrame(3, sevenAttrEntry(5))) {
				t.Errorf("reader %d: re-emitted frame differs", r)
			}
		}()
	}
	wg.Wait()
	for r := range got {
		if len(got[r]) != 7 || &got[r][0] != &got[0][0] {
			t.Fatalf("reader %d holds its own decode, want the published one", r)
		}
	}
}

// TestCompactSnapshotsOwnsItsBytes: after compaction nothing in the result
// points into the chunk the frames arrived in.
func TestCompactSnapshotsOwnsItsBytes(t *testing.T) {
	var chunk []byte
	var offs []int
	for i := 0; i < 20; i++ {
		offs = append(offs, len(chunk))
		chunk = append(chunk, entryFrame(int64(i), sevenAttrEntry(i))...)
	}
	offs = append(offs, len(chunk))
	var w wireEntries
	entries := make([]*Entry, 0, 21)
	for i := 0; i < 20; i++ {
		_, e, ok, err := scanFrame(&w, chunk[offs[i]:offs[i+1]])
		if !ok || err != nil {
			t.Fatal(i, ok, err)
		}
		entries = append(entries, e)
	}
	decoded := sevenAttrEntry(99)
	entries = append(entries, decoded)
	before := append([]*Entry(nil), entries...)
	CompactSnapshots(entries)
	if entries[20] != decoded {
		t.Error("a decoded entry was replaced")
	}
	for i := range chunk {
		chunk[i] = 0xDB
	}
	for i, e := range entries[:20] {
		if e == before[i] || e.raw == nil || cap(e.raw) != len(e.raw) {
			t.Fatalf("entry %d was not copied out to a frame of its own size", i)
		}
		if !bytes.Equal(entryFrame(int64(i), e), entryFrame(int64(i), sevenAttrEntry(i))) {
			t.Fatalf("entry %d changed with the chunk it came from: %s", i, e)
		}
	}
}

// TestCompactSnapshotsCopiesNames: a compacted result keeps its names, kept
// name bytes included, in arrays of its own — not in the connection's name
// slabs its entries were parsed into.
func TestCompactSnapshotsCopiesNames(t *testing.T) {
	var w wireEntries
	var entries, before []*Entry
	for i := 0; i < 3; i++ {
		_, e, ok, err := scanFrame(&w, entryFrame(int64(i), sevenAttrEntry(i)))
		if !ok || err != nil {
			t.Fatal(i, ok, err)
		}
		entries, before = append(entries, e), append(before, e)
	}
	CompactSnapshots(entries)
	for i, e := range entries {
		was := before[i]
		if &e.DN[0] == &was.DN[0] || &e.DN[0][0] == &was.DN[0][0] {
			t.Errorf("entry %d: compacted DN shares the slab arrays it was parsed into", i)
		}
		if e.name == nil || string(e.name) != was.DN.String() || &e.name[0] == &was.name[0] {
			t.Errorf("entry %d: kept name %q not copied out", i, e.name)
		}
		if cap(e.DN) != len(e.DN) || cap(e.DN[0]) != len(e.DN[0]) {
			t.Errorf("entry %d: compacted name can be appended into its neighbour", i)
		}
	}
}

// startWireServer serves entries 0..n-1 of sevenAttrEntry (plus one entry
// with a single huge value when big is set) over loopback TCP.
func startWireServer(t *testing.T, n int, big bool) *Client {
	t.Helper()
	c, store := startTestServer(t)
	for i := 0; i < n; i++ {
		if err := store.Put(sevenAttrEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if big {
		e := NewEntry(MustParseDN("hn=big, ou=s0, o=grid")).Add("objectclass", "computer").
			Add("blob", strings.Repeat("x", 3*maxReadChunk))
		if err := store.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// oracleSearch is the reference client: one search over a connection of its
// own, every frame read whole and decoded by the oracle.
func oracleSearch(t *testing.T, addr string, req *SearchRequest) []*Entry {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write((&Message{ID: 1, Op: req}).Encode()); err != nil {
		t.Fatal(err)
	}
	var entries []*Entry
	for r := bufio.NewReader(conn); ; {
		p, err := ber.ReadPacket(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := treeMessage(p)
		if err != nil {
			t.Fatal(err)
		}
		switch op := m.Op.(type) {
		case *SearchResultEntry:
			entries = append(entries, op.Entry)
		case *SearchResultDone:
			if err := op.Result.Err(); err != nil {
				t.Fatal(err)
			}
			return entries
		}
	}
}

// TestSearchEqualsTreeDecode: over a real connection, every client entry
// point returns what the tree decoder makes of the same reply, entry for
// entry — across read-chunk turnover (600 entries ≫ the 4 KiB first chunk),
// with a frame larger than any chunk in the stream, and with collected and
// streamed searches interleaved on the one connection. Collected entries
// alias the read chunks; a streamed entry owns its bytes at exact size.
func TestSearchEqualsTreeDecode(t *testing.T) {
	c := startWireServer(t, 600, true)
	for _, attrs := range [][]string{nil, {"hn", "rack"}, {"nosuch"}} {
		req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=computer)"), Attributes: attrs}
		want := oracleSearch(t, c.conn.RemoteAddr().String(), req)
		if len(want) != 601 {
			t.Fatalf("attrs %v: tree-decoded search returned %d entries", attrs, len(want))
		}
		var wg sync.WaitGroup
		results := make([][]*Entry, 6)
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				switch i % 3 {
				case 0:
					var res *SearchResult
					if res, err = c.Search(req); err == nil {
						results[i] = res.Entries
					}
				case 1:
					var res *SearchResult
					if res, err = c.SearchWith(req, nil); err == nil {
						results[i] = res.Entries
					}
				case 2:
					err = c.SearchFunc(context.Background(), req, nil, func(e *Entry, _ []Control) error {
						results[i] = append(results[i], e)
						return nil
					})
				}
				if err != nil {
					t.Errorf("search %d: %v", i, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, got := range results {
			if len(got) != len(want) {
				t.Fatalf("attrs %v search %d: %d entries, want %d", attrs, i, len(got), len(want))
			}
			for k, e := range got {
				if e.raw == nil || e.Attrs != nil {
					t.Fatalf("attrs %v search %d entry %d is not wire-backed", attrs, i, k)
				}
				if streamed := i%3 == 2; streamed && cap(e.raw) != len(e.raw) {
					t.Fatalf("attrs %v search %d entry %d: streamed entry holds %d bytes for a %d-byte list",
						attrs, i, k, cap(e.raw), len(e.raw))
				}
				if !reflect.DeepEqual(e.DN, want[k].DN) || !reflect.DeepEqual(e.Attributes(), want[k].Attributes()) {
					t.Fatalf("attrs %v search %d entry %d:\n got %s\nwant %s", attrs, i, k, e, want[k])
				}
			}
		}
	}
}

// searchAllocs reports the allocations of one SearchWith per result entry,
// on the calling side of the connection only (see cannedClient).
func searchAllocs(t *testing.T, n int, use func([]*Entry)) float64 {
	t.Helper()
	c := cannedClient(t, n)
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}
	perSearch := testing.AllocsPerRun(20, func() {
		res, err := c.SearchWith(req, nil)
		if err != nil || len(res.Entries) != n {
			t.Fatalf("canned search: %v, %v", res, err)
		}
		use(res.Entries)
	})
	return perSearch / float64(n)
}

// cannedClient is a Client whose server answers every request, as a search,
// with the same n entries and a done message: a canned reply written by a
// goroutine that allocates nothing.
func cannedClient(t *testing.T, n int) *Client {
	t.Helper()
	var reply []byte
	for i := 0; i < n; i++ {
		reply = append(reply, entryFrame(0, sevenAttrEntry(i))...)
	}
	client, server := net.Pipe()
	c := NewClient(client)
	t.Cleanup(func() {
		c.Close()
		server.Close()
	})
	go func() {
		// Message IDs are patched into the canned frames: they stay below
		// 128 here, so the INTEGER keeps its one content octet.
		buf := make([]byte, 4096)
		done := (&Message{ID: 0, Op: &SearchResultDone{}}).Encode()
		for id := byte(1); ; id++ {
			if _, err := server.Read(buf); err != nil {
				return
			}
			for off := 0; off < len(reply); {
				k, _ := ber.FrameLen(reply[off:])
				_, body, _, _ := ber.Element(reply[off : off+k])
				body[2] = id
				off += k
			}
			done[4] = id
			server.Write(reply)
			server.Write(done)
		}
	}()
	return c
}

// TestCollectedSearchAllocationBudget: once a Client has completed a search,
// the next collected search reuses its routing state — op, timeout timer,
// and the done message built into the op — and a Done channel, and costs
// its caller its Call (which holds its SearchResult) and the handed-over
// entry slice: 2 allocations.
// (AllocsPerRun counts whole allocations per run, so the one entry's
// shares of the connection's entry, name and read-chunk slabs, ≈ 0.1, do
// not show.) A fresh op, its channel, its timer and the done message took
// 8 more (10 in all).
func TestCollectedSearchAllocationBudget(t *testing.T) {
	c := cannedClient(t, 1)
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}
	// The canned IDs stay below 128 (see cannedClient).
	n := testing.AllocsPerRun(100, func() {
		res, err := c.SearchWith(req, nil)
		if err != nil || len(res.Entries) != 1 {
			t.Fatalf("canned search: %v, %v", res, err)
		}
	})
	t.Logf("allocations per warmed-up collected search of one entry: %.0f", n)
	if n > 2 {
		t.Errorf("a warmed-up collected search makes %.0f allocations, want 2: its SearchResult and entry slice", n)
	}
}

// TestClientSearchAllocationBudget: a collected search costs its caller at
// most 0.5 allocations per result entry when it reads names only (its
// shares of the entry and name slabs and of the one result slice), at most
// 6 when it reads every attribute (the decode adds a copy of the list, the
// attribute slice, the one value array, and the published pointer). The
// copy → Packet tree → Entry path took about 70.
func TestClientSearchAllocationBudget(t *testing.T) {
	const n = 200
	names := searchAllocs(t, n, func([]*Entry) {})
	all := searchAllocs(t, n, func(entries []*Entry) {
		for _, e := range entries {
			if len(e.Attributes()) != 7 {
				t.Fatalf("decoded %s", e)
			}
		}
	})
	tree := testing.AllocsPerRun(50, func() { treeDecode(entryFrame(9, sevenAttrEntry(1))) })
	t.Logf("allocations per result entry: names only %.1f, every attribute read %.1f, tree decode %.0f", names, all, tree)
	if names > 0.5 {
		t.Errorf("a result entry costs %.2f allocations with no attribute read, budget 0.5", names)
	}
	if all > 6 {
		t.Errorf("a result entry costs %.1f allocations with every attribute read, budget 6", all)
	}
}

// TestKeptEntriesDoNotPinReadChunks: a subscriber that keeps one streamed
// entry per notification keeps those entries, and a caller that keeps
// Clones, Selects or a CompactSnapshots of entries out of collected results
// keeps those copies — none keeps the read chunks the entries, or the
// strings of their names, arrived in. Each case keeps every tenth entry of
// ten 1,000-entry replies: 1,000 entries of ~200 bytes, well under 1 MiB,
// where entries (or decoded values, or names) that aliased their chunks
// would pin all ten replies, ≈ 2 MiB.
//
// The cases run in a fixed order after one unmeasured search on the same
// connection, so the buffers a connection makes once, on its first search,
// are in place before any case is measured: each figure is what that
// case's kept entries hold.
func TestKeptEntriesDoNotPinReadChunks(t *testing.T) {
	c := startWireServer(t, 1000, false)
	req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}
	if _, err := c.Search(req); err != nil {
		t.Fatal(err)
	}
	keep := []struct {
		name string
		pass func(held []*Entry) []*Entry
	}{
		{"streamed", func(held []*Entry) []*Entry {
			k := 0
			err := c.SearchFunc(context.Background(), req, nil, func(e *Entry, _ []Control) error {
				if k++; k%10 == 0 {
					held = append(held, e)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return held
		}},
		{"cloned", func(held []*Entry) []*Entry {
			res, err := c.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			for k := 9; k < len(res.Entries); k += 10 {
				held = append(held, res.Entries[k].Clone())
			}
			return held
		}},
		{"selected", func(held []*Entry) []*Entry {
			res, err := c.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			for k := 9; k < len(res.Entries); k += 10 {
				held = append(held, res.Entries[k].Select([]string{"objectclass", "hn"}))
			}
			return held
		}},
		{"compacted", func(held []*Entry) []*Entry {
			res, err := c.Search(req)
			if err != nil {
				t.Fatal(err)
			}
			kept := make([]*Entry, 0, len(res.Entries)/10)
			for k := 9; k < len(res.Entries); k += 10 {
				kept = append(kept, res.Entries[k])
			}
			CompactSnapshots(kept)
			return append(held, kept...)
		}},
	}
	for _, k := range keep {
		name, pass := k.name, k.pass
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		held := make([]*Entry, 0, 1000)
		for i := 0; i < 10; i++ {
			held = pass(held)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if len(held) != 1000 || held[999].First("objectclass") != "computer" {
			t.Fatalf("%s: held %d entries, last %s", name, len(held), held[len(held)-1])
		}
		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s: 1,000 kept entries keep %d KiB live", name, live>>10)
		if live > 1<<20 {
			t.Errorf("%s: 1,000 kept entries keep %d KiB live, want < 1 MiB", name, live>>10)
		}
		runtime.KeepAlive(held)
	}
}

// TestStoreAdoptOwnsReceivedEntries: a store that adopts a received entry
// keeps a copy with bytes of its own, name included, so the buffer the entry
// arrived in may be reused: scribbling over it changes nothing the store
// serves. The caller's slice is left as it was.
func TestStoreAdoptOwnsReceivedEntries(t *testing.T) {
	want := sevenAttrEntry(3)
	frame := entryFrame(1, want)
	var w wireEntries
	_, e, ok, err := scanFrame(&w, frame)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	handed := []*Entry{e}
	store := NewStore()
	if err := store.Adopt(handed); err != nil {
		t.Fatal(err)
	}
	if handed[0] != e {
		t.Error("Adopt replaced an entry in the caller's slice")
	}
	for i := range frame {
		frame[i] = 0xDB
	}
	got := store.Find(MustParseDN("o=grid"), ScopeWholeSubtree, nil)
	if len(got) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(got))
	}
	if got[0].DN.String() != want.DN.String() || !reflect.DeepEqual(got[0].Attributes(), want.Attributes()) {
		t.Errorf("after its frame was reused the store serves %s, want %s", got[0], want)
	}
	if sent := entryFrame(1, got[0]); !bytes.Equal(sent, entryFrame(1, want)) {
		t.Errorf("after its frame was reused the store sends\n% x\nwant\n% x", sent, entryFrame(1, want))
	}
}
