package ldap

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mds2/internal/ber"
)

// scanFrame is the read loop's wire path on one frame, without the pending
// operation lookup between its two steps: ok reports a frame of the
// scanner's canonical shape, err a name the DN parser refuses.
func scanFrame(w *wireEntries, frame []byte) (id int64, e *Entry, ok bool, err error) {
	id, op, ok := scanEnvelope(frame)
	if !ok || op[0] != idSearchEntry {
		return 0, nil, false, nil
	}
	dn, attrs, ok := scanSearchEntry(op)
	if !ok {
		return 0, nil, false, nil
	}
	e, err = w.next(dn, attrs)
	return id, e, true, err
}

// treeDecode is the reference: the Packet-tree decoder every frame went
// through before entries were relayed as wire bytes.
func treeDecode(frame []byte) *Message {
	p, err := ber.DecodeFull(frame)
	if err != nil {
		return nil
	}
	m, err := DecodeMessage(p)
	if err != nil {
		return nil
	}
	return m
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

// FuzzWireEntry pins the scanner to the tree decoder. What it accepts, the
// tree decoder accepts, as the same entry; what our encoder emits, it
// accepts (no silent fall-back off the fast path); and the frame a relay
// emits for an accepted entry decodes to the entry that came in. Anything
// else is left to the tree decoder, which alone refuses frames.
func FuzzWireEntry(f *testing.F) {
	for _, m := range wireCorpus() {
		f.Add(m.Encode())
	}
	for i := 0; i < 4; i++ {
		f.Add(entryFrame(int64(i), sevenAttrEntry(i)))
	}
	for _, frame := range hostileFrames() {
		f.Add(frame)
	}
	// Valid BER, not canonical: long-form lengths where short would do.
	f.Add([]byte{idSequence, 0x81, 16, idInteger, 1, 1, idSearchEntry, 0x81, 10,
		idOctetString, 3, 'o', '=', 'g', idSequence, 0x82, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		want := treeDecode(frame)
		if n, err := ber.FrameLen(frame); want != nil && (err != nil || n != len(frame)) {
			t.Fatalf("FrameLen = %d, %v for a %d-byte frame the tree decoder accepts", n, err, len(frame))
		}
		var w wireEntries
		id, e, ok, err := scanFrame(&w, frame)
		if !ok {
			if want == nil {
				return
			}
			if sre, isEntry := want.Op.(*SearchResultEntry); isEntry && want.Controls == nil &&
				bytes.Equal(entryFrame(want.ID, sre.Entry), frame) {
				t.Fatalf("scanner fell back on a frame in our own encoder's form: % x", frame)
			}
			return
		}
		if err != nil {
			if want != nil {
				t.Fatalf("scanner refused name (%v) in a frame the tree decoder accepts", err)
			}
			return
		}
		if want == nil {
			t.Fatalf("scanner accepted a frame the tree decoder refuses: % x", frame)
		}
		sre, isEntry := want.Op.(*SearchResultEntry)
		if !isEntry || want.Controls != nil || want.ID != id {
			t.Fatalf("scanner saw entry %d, tree decoder %T id %d controls %v", id, want.Op, want.ID, want.Controls)
		}
		if !reflect.DeepEqual(e.DN, sre.Entry.DN) {
			t.Fatalf("name %q, tree decoder %q", e.DN, sre.Entry.DN)
		}
		relayed := entryFrame(id, e) // before anything decoded it
		if !reflect.DeepEqual(e.Attributes(), sre.Entry.Attrs) {
			t.Fatalf("attributes %v, tree decoder %v", e.Attributes(), sre.Entry.Attrs)
		}
		back := treeDecode(relayed)
		if back == nil || !reflect.DeepEqual(back.Op, want.Op) || back.ID != id {
			t.Fatalf("relayed frame does not decode to the entry that came in:\n in  % x\n out % x", frame, relayed)
		}
	})
}

// TestWireScannerRefuses: a GIIS must not forward bytes it did not validate.
// Each hostile frame is turned away by the scanner and then refused by the
// tree decoder behind it — and end to end, a connection that receives one
// fails the search instead of relaying anything.
func TestWireScannerRefuses(t *testing.T) {
	for name, frame := range hostileFrames() {
		var w wireEntries
		if _, _, ok, err := scanFrame(&w, frame); ok && err == nil {
			t.Errorf("%s: scanner accepted % x", name, frame)
		}
		if treeDecode(frame) != nil {
			t.Errorf("%s: tree decoder accepted % x", name, frame)
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
		res, err := c.SearchWire(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil)
		if err == nil {
			t.Errorf("%s: search succeeded with %d entries", name, len(res.Entries))
		}
		c.Close()
		server.Close()
	}
}

// TestWireRelayAllocationBudget: what a chaining directory does per relayed
// entry — scan the frame, build the wire-backed entry, render its sort key,
// re-emit it — stays within 8 allocations for a 7-attribute entry (the
// decode → Entry → clone → re-encode path it replaces took about 57).
func TestWireRelayAllocationBudget(t *testing.T) {
	const batch = 64
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = entryFrame(9, sevenAttrEntry(i))
	}
	var w wireEntries
	entries := make([]*Entry, batch)
	out := make([]byte, 0, 1024)
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
			// What connSearchWriter.SendEntry builds per entry.
			out = (&Message{ID: 9, Op: &SearchResultEntry{Entry: e.Project(nil)}}).AppendTo(out[:0])
		}
	})
	if per := perBatch / batch; per > 8 {
		t.Errorf("relaying one 7-attribute entry costs %.1f allocations, budget 8", per)
	}
	// The tree path, for scale.
	tree := testing.AllocsPerRun(50, func() {
		m := treeDecode(frames[0])
		e := m.Op.(*SearchResultEntry).Entry
		_ = e.DN.Normalize()
		out = (&Message{ID: 9, Op: &SearchResultEntry{Entry: e.Select(nil)}}).AppendTo(out[:0])
	})
	t.Logf("allocations per relayed entry: wire %.1f, decode → clone → re-encode %.1f", perBatch/batch, tree)
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

// TestSearchWireEqualsSearchWith: over a real connection the wire-backed
// result is the decoded result, entry for entry — across read-chunk
// turnover (600 entries ≫ the 4 KiB first chunk), with a frame larger than
// any chunk in the stream, and with both kinds of search interleaved on the
// one connection.
func TestSearchWireEqualsSearchWith(t *testing.T) {
	c := startWireServer(t, 600, true)
	for _, attrs := range [][]string{nil, {"hn", "rack"}, {"nosuch"}} {
		req := &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=computer)"), Attributes: attrs}
		var wg sync.WaitGroup
		results := make([]*SearchResult, 6)
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if i%2 == 0 {
					results[i], err = c.SearchWire(req, nil)
				} else {
					results[i], err = c.SearchWith(req, nil)
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
		want := results[1].Entries
		if len(want) != 601 {
			t.Fatalf("attrs %v: decoded search returned %d entries", attrs, len(want))
		}
		for i, res := range results {
			if len(res.Entries) != len(want) {
				t.Fatalf("attrs %v search %d: %d entries, want %d", attrs, i, len(res.Entries), len(want))
			}
			for k, e := range res.Entries {
				if wire := i%2 == 0; (e.raw != nil) != wire {
					t.Fatalf("attrs %v search %d entry %d: wire-backed = %v", attrs, i, k, !wire)
				}
				if !reflect.DeepEqual(e.DN, want[k].DN) || !reflect.DeepEqual(e.Attributes(), want[k].Attrs) {
					t.Fatalf("attrs %v search %d entry %d:\n got %s\nwant %s", attrs, i, k, e, want[k])
				}
			}
		}
	}
}
