package ldap

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"mds2/internal/ber"
)

// envelope wraps an operation tree, and any trailing elements, into an
// LDAPMessage frame.
func envelope(id int64, op *ber.Packet, extra ...*ber.Packet) []byte {
	return ber.Marshal(ber.NewSequence().Append(ber.NewInteger(id), op).Append(extra...))
}

// longForm re-encodes every length in b in the two-octet long form: valid
// BER that no minimal encoder emits.
func longForm(b []byte) []byte {
	var out []byte
	for len(b) > 0 {
		id, contents, rest, err := ber.Element(b)
		if err != nil {
			panic(err)
		}
		if id&0x20 != 0 {
			contents = longForm(contents)
		}
		out = append(out, id, 0x82, byte(len(contents)>>8), byte(len(contents)))
		out = append(out, contents...)
		b = rest
	}
	return out
}

// withTrailing appends extra, raw, to the contents of a frame's operation:
// a field after the last one RFC 4511 defines, which the tree decoder
// ignores if it decodes.
func withTrailing(frame, extra []byte) []byte {
	_, body, _, _ := ber.Element(frame)
	_, _, rest, _ := ber.Element(body)
	opID, op, controls, _ := ber.Element(rest)
	var b ber.Builder
	b.Begin(ber.ClassUniversal, ber.TagSequence)
	b.RawBytes(body[:len(body)-len(rest)])
	b.Begin(ber.Class(opID>>6), uint32(opID&0x1f))
	b.RawBytes(op)
	b.RawBytes(extra)
	b.End()
	b.RawBytes(controls)
	b.End()
	return b.Bytes()
}

// notDeep nests leaf under n NOTs.
func notDeep(n int, leaf *Filter) *Filter {
	for i := 0; i < n; i++ {
		leaf = Not(leaf)
	}
	return leaf
}

// requestSeeds are search request frames of every filter kind, with and
// without controls, in our encoder's canonical form and in forms only the
// tree decoder takes or nobody does.
func requestSeeds() map[string][]byte {
	req := func() *SearchRequest {
		return &SearchRequest{BaseDN: "ou=s0, o=grid", Scope: ScopeWholeSubtree, SizeLimit: 10, TimeLimit: 5,
			Filter: MustParseFilter("(&(objectclass=computer)(hn=h1))"), Attributes: []string{"hn", "load5"}}
	}
	seeds := map[string][]byte{}
	for i, m := range wireCorpus() {
		if _, ok := m.Op.(*SearchRequest); ok {
			seeds[fmt.Sprintf("corpus %d", i)] = m.Encode()
		}
	}
	for _, f := range []string{
		"(|(hn=a)(hn=b)(!(hn=c)))", "(cn=ho*st*X)", "(cn=*mid*)", "(cn=a**b)", "(cn>=a)", "(cn<=z)",
		"(cn~=x)", "(hn=*)", "(&(a=1)(|(b=2)(!(c=3*)))(d>=4)(e<=5)(f~=6)(g=*))",
	} {
		r := req()
		r.Filter = MustParseFilter(f)
		seeds["filter "+f] = (&Message{ID: 3, Op: r}).Encode()
	}
	// The filter sits at depth 2 of its frame, so an equality under 61 NOTs
	// has its attribute and value at the tree decoder's depth limit, and a
	// presence filter under 62 is there itself.
	for name, f := range map[string]*Filter{
		"equality at the depth limit":   notDeep(61, Eq("hn", "h1")),
		"equality past the depth limit": notDeep(62, Eq("hn", "h1")),
		"presence at the depth limit":   notDeep(62, Present("hn")),
		"presence past the depth limit": notDeep(63, Present("hn")),
	} {
		r := req()
		r.Filter = f
		seeds[name] = (&Message{ID: 3, Op: r}).Encode()
	}
	seeds["no attributes, no limits"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid",
		Filter: Present("objectclass")}}).Encode()
	seeds["out-of-range scope"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid", Scope: 5}}).Encode()
	seeds["negative limits"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid", SizeLimit: -1, TimeLimit: -7}}).Encode()
	seeds["controls"] = (&Message{ID: 5, Op: req(), Controls: []Control{
		{OID: "1.2.3", Criticality: true, Value: []byte("v")}, {OID: "1.2.4"}, {OID: "1.2.5", Value: []byte{}},
		{OID: "1.2.6", Criticality: true}}}).Encode()
	seeds["long-form lengths"] = longForm((&Message{ID: 6, Op: req(), Controls: []Control{{OID: "1.2.3", Value: []byte("v")}}}).Encode())
	seeds["trailing bytes"] = append((&Message{ID: 7, Op: req()}).Encode(), 0)

	tree := func(mod func(op *ber.Packet)) *ber.Packet {
		op := treeOp(req())
		mod(op)
		return op
	}
	seeds["constructed base"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[0] = ber.NewConstructed(ber.ClassUniversal, ber.TagOctetString).Append(ber.NewOctetString("o=grid"))
	}))
	seeds["constructed attribute"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[7].Children[0] = ber.NewConstructed(ber.ClassUniversal, ber.TagOctetString).Append(ber.NewOctetString("hn"))
	}))
	seeds["integer scope"] = envelope(8, tree(func(op *ber.Packet) { op.Children[1] = ber.NewInteger(2) }))
	seeds["9 fields"] = envelope(8, tree(func(op *ber.Packet) { op.Append(ber.NewNull()) }))
	// A SEQUENCE whose one OCTET STRING claims 5 octets and has none.
	seeds["malformed 9th field"] = withTrailing((&Message{ID: 8, Op: req()}).Encode(), []byte{idSequence, 2, idOctetString, 5})
	seeds["7 fields"] = envelope(8, tree(func(op *ber.Packet) { op.Children = op.Children[:7] }))
	seeds["2-octet boolean"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[5] = &ber.Packet{Tag: ber.TagBoolean, Value: []byte{0, 0xff}}
	}))
	seeds["empty integer"] = envelope(8, tree(func(op *ber.Packet) { op.Children[3] = &ber.Packet{Tag: ber.TagInteger} }))
	seeds["substrings out of order"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(ber.NewOctetString("cn"),
			ber.NewSequence().Append(ber.NewContextString(2, "z"), ber.NewContextString(0, "a")))
	}))
	seeds["substrings empty initial"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(ber.NewOctetString("cn"),
			ber.NewSequence().Append(ber.NewContextString(0, "")))
	}))
	seeds["substrings initial twice"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(ber.NewOctetString("cn"),
			ber.NewSequence().Append(ber.NewContextString(0, "a"), ber.NewContextString(0, "")))
	}))
	seeds["not of two"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterNot)).Append(Present("a").ToBER(), Present("b").ToBER())
	}))
	seeds["empty and"] = envelope(8, tree(func(op *ber.Packet) { op.Children[6] = ber.NewConstructed(ber.ClassContext, 0) }))
	seeds["extensible match"] = envelope(8, tree(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, 9).Append(ber.NewContextString(2, "hn"), ber.NewContextString(3, "x"))
	}))
	seeds["primitive control list"] = envelope(9, treeOp(req()), &ber.Packet{Class: ber.ClassContext, Tag: 0})
	seeds["element after controls"] = envelope(9, treeOp(req()), ber.NewConstructed(ber.ClassContext, 0), ber.NewNull())
	control := func(fields ...*ber.Packet) *ber.Packet {
		return ber.NewConstructed(ber.ClassContext, 0).Append(ber.NewSequence().Append(fields...))
	}
	seeds["reordered control fields"] = envelope(9, treeOp(req()),
		control(ber.NewOctetString("1.2.3"), ber.NewOctetString("v"), ber.NewBoolean(true)))
	seeds["integer criticality"] = envelope(9, treeOp(req()), control(ber.NewOctetString("1.2.3"), ber.NewInteger(1)))
	seeds["2-octet criticality"] = envelope(9, treeOp(req()),
		control(ber.NewOctetString("1.2.3"), &ber.Packet{Tag: ber.TagBoolean, Value: []byte{0, 1}}))
	seeds["control without oid"] = envelope(9, treeOp(req()), control())
	seeds["control of four fields"] = envelope(9, treeOp(req()),
		control(ber.NewOctetString("1.2.3"), ber.NewBoolean(false), ber.NewOctetString("v"), ber.NewNull()))
	return seeds
}

// doneSeeds are SearchResultDone frames the client's scanner must build as
// the tree decoder does, or leave to it.
func doneSeeds() map[string][]byte {
	done := func(r Result) *ber.Packet { return treeOp(&SearchResultDone{Result: r}) }
	refused := Result{Code: ResultNoSuchObject, MatchedDN: "o=grid", Message: "no such object",
		Referrals: []string{"ldap://a.example/o=grid", "ldap://b.example"}}
	return map[string][]byte{
		"success":        (&Message{ID: 3, Op: &SearchResultDone{}}).Encode(),
		"partial":        (&Message{ID: 3, Op: &SearchResultDone{Result{Message: "partial results: x"}}}).Encode(),
		"referrals":      (&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode(),
		"long-form":      longForm((&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode()),
		"trace spans":    (&Message{ID: 3, Op: &SearchResultDone{}, Controls: []Control{{OID: "1.2.3", Value: []byte("spans")}}}).Encode(),
		"integer code":   envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(ber.NewInteger(0), ber.NewOctetString(""), ber.NewOctetString(""))),
		"trailing field": envelope(3, done(refused).Append(ber.NewNull())),
		"malformed trailing": withTrailing((&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode(),
			[]byte{idSequence, 2, idOctetString, 5}),
		"empty referrals":   envelope(3, done(Result{}).Append(ber.NewConstructed(ber.ClassContext, 3))),
		"primitive [3]":     envelope(3, done(Result{}).Append(&ber.Packet{Class: ber.ClassContext, Tag: 3, Value: []byte("x")})),
		"short result":      envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(ber.NewEnumerated(0))),
		"constructed match": envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(ber.NewEnumerated(0), ber.NewSequence(), ber.NewOctetString(""))),
	}
}

// FuzzScanSearchRequest pins the request scanner, and the client's done
// scanner, to the tree decoder. Whatever a scanner accepts, DecodeMessage
// accepts too, as a reflect.DeepEqual message — one that keeps nothing of the
// frame it was scanned from; what our own encoder emits, the scanners accept.
// Anything else is left to the tree decoder, which alone refuses frames.
func FuzzScanSearchRequest(f *testing.F) {
	for _, frame := range requestSeeds() {
		f.Add(frame)
	}
	for _, frame := range doneSeeds() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		want := treeDecode(frame)
		canonical := want != nil && bytes.Equal(want.Encode(), frame)
		in := bytes.Clone(frame)
		got, ok := scanSearchRequest(in)
		if ok {
			if want == nil {
				t.Fatalf("scanner accepted a request the tree decoder refuses: % x", frame)
			}
			for i := range in {
				in[i] = 0xDB // the read loop reuses the buffer
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scanned request\n %#v\ntree decoder\n %#v", got, want)
			}
		} else if canonical {
			if _, isSearch := want.Op.(*SearchRequest); isSearch {
				t.Fatalf("request scanner fell back on a frame in our own encoder's form: % x", frame)
			}
		}
		in = bytes.Clone(frame)
		id, op, controls, ok := scanEnvelope(in)
		if !ok || controls != nil || op[0] != idSearchDone {
			return
		}
		if got, ok := scanSearchDone(id, op); ok {
			for i := range in {
				in[i] = 0xDB // the read loop rewinds the chunk
			}
			if want == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("scanned done %#v, tree decoder %#v", got, want)
			}
		} else if canonical {
			if _, isDone := want.Op.(*SearchResultDone); isDone {
				t.Fatalf("done scanner fell back on a frame in our own encoder's form: % x", frame)
			}
		}
	})
}

// TestSearchRequestAllocationBudget: a scanned request is the frame's one
// copy, the Message and SearchRequest together, the filter's nodes and the
// attribute list — at most 4 allocations for (&(objectclass=…)(hn=…)) and
// two attributes, where the tree decoder makes about 25.
func TestSearchRequestAllocationBudget(t *testing.T) {
	frame := (&Message{ID: 7, Op: &SearchRequest{BaseDN: "ou=s0, o=grid", Scope: ScopeWholeSubtree,
		Filter:     MustParseFilter("(&(objectclass=computer)(hn=h1))"),
		Attributes: []string{"hn", "load5"}}}).Encode()
	n := testing.AllocsPerRun(100, func() {
		if _, ok := scanSearchRequest(frame); !ok {
			t.Fatal("scanner refused a canonical request")
		}
	})
	tree := testing.AllocsPerRun(100, func() { ParseMessageBytes(frame) })
	t.Logf("allocations per search request: scanned %.0f, tree-decoded %.0f", n, tree)
	if n > 4 {
		t.Errorf("scanning a search request costs %.0f allocations, budget 4", n)
	}
}

// TestResultDoneZeroAlloc: a client reading the done message of a successful
// search builds the Message and nothing else — no copy, no strings.
func TestResultDoneZeroAlloc(t *testing.T) {
	frame := (&Message{ID: 7, Op: &SearchResultDone{}}).Encode()
	id, op, _, _ := scanEnvelope(frame)
	n := testing.AllocsPerRun(100, func() {
		if _, ok := scanSearchDone(id, op); !ok {
			t.Fatal("scanner refused a canonical done")
		}
	})
	if n != 1 {
		t.Errorf("scanning a successful done makes %.0f allocations, want only its Message's", n)
	}
}

// readReplies reads a search's replies off a raw connection, up to its done
// message, each re-encoded. ok is false when the server closed the
// connection first.
func readReplies(t *testing.T, conn net.Conn, r *bufio.Reader) (replies [][]byte, ok bool) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		p, err := ber.ReadPacket(r)
		if err != nil {
			return replies, false
		}
		m, err := DecodeMessage(p)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, m.Encode())
		if _, done := m.Op.(*SearchResultDone); done {
			return replies, true
		}
	}
}

// TestServerAcceptsIffTreeDecodes: a server answers a search frame iff the
// tree decoder takes it, and a frame the scanner leaves to the tree decoder
// gets the answer its canonical form — which the scanner takes — gets.
func TestServerAcceptsIffTreeDecodes(t *testing.T) {
	c, store := startTestServer(t)
	if err := store.Put(NewEntry(MustParseDN("hn=h1, ou=s0, o=grid")).Add("objectclass", "computer").
		Add("hn", "h1").Add("load5", "0.5")); err != nil {
		t.Fatal(err)
	}
	addr := c.conn.RemoteAddr().String()
	answered, refused := 0, 0
	for name, frame := range requestSeeds() {
		if n, err := ber.FrameLen(frame); err != nil || n != len(frame) {
			continue // the stream would frame it differently
		}
		want := treeDecode(frame)
		if want != nil {
			if _, isSearch := want.Op.(*SearchRequest); !isSearch || isPersistentSearch(want) {
				continue
			}
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		got, ok := readReplies(t, conn, r)
		if ok != (want != nil) {
			t.Errorf("%s: answered %v, tree decoder accepts %v", name, ok, want != nil)
		}
		if ok {
			answered++
			if _, err := conn.Write(want.Encode()); err != nil {
				t.Fatal(err)
			}
			if canon, _ := readReplies(t, conn, r); !reflect.DeepEqual(got, canon) {
				t.Errorf("%s: replies\n %x\ndiffer from the canonical request's\n %x", name, got, canon)
			}
		} else {
			refused++
		}
		conn.Close()
	}
	t.Logf("%d search frames answered, %d refused", answered, refused)
	if answered < 10 || refused < 5 {
		t.Errorf("only %d frames answered and %d refused: the seeds no longer exercise both sides", answered, refused)
	}
}
