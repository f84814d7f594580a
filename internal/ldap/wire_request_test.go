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
	"mds2/internal/obs"
)

// envelope wraps an operation tree, and any trailing elements, into an
// LDAPMessage frame.
func envelope(id int64, op *ber.Packet, extra ...*ber.Packet) []byte {
	return ber.Marshal(ber.NewSequence().Append(ber.NewInteger(id), op).Append(extra...))
}

// longForm re-encodes every length in b in the long form with k length
// octets: valid BER that no minimal encoder emits (OpenLDAP's liblber
// writes k = 4).
func longForm(b []byte, k int) []byte {
	var out []byte
	for len(b) > 0 {
		id, contents, rest, err := ber.Element(b)
		if err != nil {
			panic(err)
		}
		if id&0x20 != 0 {
			contents = longForm(contents, k)
		}
		out = append(out, id, 0x80|byte(k))
		for i := k - 1; i >= 0; i-- {
			out = append(out, byte(len(contents)>>(8*i)))
		}
		out = append(out, contents...)
		b = rest
	}
	return out
}

// withTrailing appends extra, raw, to the contents of a frame's operation:
// a field after the last one RFC 4511 defines.
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

// poison overwrites b, as a read loop that reuses its buffer does.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// seedRequest is the search request the seeds and the language table vary.
func seedRequest() *SearchRequest {
	return &SearchRequest{BaseDN: "ou=s0, o=grid", Scope: ScopeWholeSubtree, SizeLimit: 10, TimeLimit: 5,
		Filter: MustParseFilter("(&(objectclass=computer)(hn=h1))"), Attributes: []string{"hn", "load5"}}
}

// treeSearch builds seedRequest's operation tree after mod changes it.
func treeSearch(mod func(op *ber.Packet)) *ber.Packet {
	op := treeOp(seedRequest())
	mod(op)
	return op
}

// requestSeeds are search request frames of every filter kind, with and
// without controls, in our encoder's form, and frames that neither the
// scanner nor the oracle accepts. The leniencies of the oracle are
// languageRows'.
func requestSeeds() map[string][]byte {
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
		r := seedRequest()
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
		r := seedRequest()
		r.Filter = f
		seeds[name] = (&Message{ID: 3, Op: r}).Encode()
	}
	// Requests that outgrow each array of the scan's one allocation: a
	// 6-RDN base, a 12-node filter, a frame larger than the inline copy; and
	// a base that does not parse, which the scan keeps for its handler.
	big := seedRequest()
	big.BaseDN = "hn=h1, rack=r1, ou=s0, o=center1, o=grid, vo=alliance"
	seeds["6-RDN base"] = (&Message{ID: 3, Op: big}).Encode()
	big = seedRequest()
	big.Filter = MustParseFilter("(&(objectclass=computer)(|(hn=a)(hn=b)(hn=c)(hn=d))(!(rack=r9))(load5>=1)(cpucount<=8)(cn=x*))")
	seeds["12-node filter"] = (&Message{ID: 3, Op: big}).Encode()
	big = seedRequest()
	big.Attributes = []string{"hn", "load5", "load15", "cpucount", "memsize", "system", "rack", "objectclass",
		"mds-host-hn", "mds-cpu-total-count", "mds-memory-ram-total-size-mb", "mds-os-name", "mds-os-version"}
	big.Filter = MustParseFilter("(&(objectclass=mdshost)(mds-host-hn=gris7.center1.example.org)(mds-os-name=linux))")
	seeds["frame past the inline copy"] = (&Message{ID: 3, Op: big}).Encode()
	for _, bad := range []string{"===bad", "hn=h1, o=grid,"} {
		big = seedRequest()
		big.BaseDN = bad
		seeds["malformed base "+bad] = (&Message{ID: 3, Op: big}).Encode()
	}
	seeds["no attributes, no limits"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid",
		Filter: Present("objectclass")}}).Encode()
	seeds["out-of-range scope"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid", Scope: 5}}).Encode()
	seeds["negative limits"] = (&Message{ID: 4, Op: &SearchRequest{BaseDN: "o=grid", SizeLimit: -1, TimeLimit: -7}}).Encode()
	seeds["controls"] = (&Message{ID: 5, Op: seedRequest(), Controls: []Control{
		{OID: "1.2.3", Criticality: true, Value: []byte("v")}, {OID: "1.2.4"}, {OID: "1.2.5", Value: []byte{}},
		{OID: "1.2.6", Criticality: true}}}).Encode()
	seeds["long-form lengths"] = longForm((&Message{ID: 6, Op: seedRequest(), Controls: []Control{{OID: "1.2.3", Value: []byte("v")}}}).Encode(), 2)
	seeds["trailing bytes"] = append((&Message{ID: 7, Op: seedRequest()}).Encode(), 0)

	// A SEQUENCE whose one OCTET STRING claims 5 octets and has none.
	seeds["malformed 9th field"] = withTrailing((&Message{ID: 8, Op: seedRequest()}).Encode(), []byte{idSequence, 2, idOctetString, 5})
	seeds["7 fields"] = envelope(8, treeSearch(func(op *ber.Packet) { op.Children = op.Children[:7] }))
	seeds["2-octet boolean"] = envelope(8, treeSearch(func(op *ber.Packet) {
		op.Children[5] = &ber.Packet{Tag: ber.TagBoolean, Value: []byte{0, 0xff}}
	}))
	seeds["empty integer"] = envelope(8, treeSearch(func(op *ber.Packet) { op.Children[3] = &ber.Packet{Tag: ber.TagInteger} }))
	substrings := func(parts ...*ber.Packet) *ber.Packet {
		return ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(ber.NewOctetString("cn"),
			ber.NewSequence().Append(parts...))
	}
	seeds["substrings empty initial"] = envelope(8, treeSearch(func(op *ber.Packet) {
		op.Children[6] = substrings(ber.NewContextString(0, ""))
	}))
	seeds["substrings initial twice"] = envelope(8, treeSearch(func(op *ber.Packet) {
		op.Children[6] = substrings(ber.NewContextString(0, "a"), ber.NewContextString(0, ""))
	}))
	seeds["not of two"] = envelope(8, treeSearch(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterNot)).Append(Present("a").ToBER(), Present("b").ToBER())
	}))
	seeds["empty and"] = envelope(8, treeSearch(func(op *ber.Packet) { op.Children[6] = ber.NewConstructed(ber.ClassContext, 0) }))
	seeds["extensible match"] = envelope(8, treeSearch(func(op *ber.Packet) {
		op.Children[6] = ber.NewConstructed(ber.ClassContext, 9).Append(ber.NewContextString(2, "hn"), ber.NewContextString(3, "x"))
	}))
	control := func(fields ...*ber.Packet) *ber.Packet {
		return ber.NewConstructed(ber.ClassContext, 0).Append(ber.NewSequence().Append(fields...))
	}
	seeds["2-octet criticality"] = envelope(9, treeOp(seedRequest()),
		control(ber.NewOctetString("1.2.3"), &ber.Packet{Tag: ber.TagBoolean, Value: []byte{0, 1}}))
	seeds["control without oid"] = envelope(9, treeOp(seedRequest()), control())
	return seeds
}

// doneSeeds are SearchResultDone frames the client reads: in our encoder's
// form, and malformed.
func doneSeeds() map[string][]byte {
	done := func(r Result) *ber.Packet { return treeOp(&SearchResultDone{Result: r}) }
	refused := Result{Code: ResultNoSuchObject, MatchedDN: "o=grid", Message: "no such object",
		Referrals: []string{"ldap://a.example/o=grid", "ldap://b.example"}}
	return map[string][]byte{
		"success":     (&Message{ID: 3, Op: &SearchResultDone{}}).Encode(),
		"partial":     (&Message{ID: 3, Op: &SearchResultDone{Result{Message: "partial results: x"}}}).Encode(),
		"referrals":   (&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode(),
		"long-form":   longForm((&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode(), 2),
		"trace spans": (&Message{ID: 3, Op: &SearchResultDone{}, Controls: []Control{{OID: "1.2.3", Value: []byte("spans")}}}).Encode(),
		"malformed trailing": withTrailing((&Message{ID: 3, Op: &SearchResultDone{refused}}).Encode(),
			[]byte{idSequence, 2, idOctetString, 5}),
		"empty referrals": envelope(3, done(Result{}).Append(ber.NewConstructed(ber.ClassContext, 3))),
		"short result":    envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(ber.NewEnumerated(0))),
	}
}

// languageRow is one leniency of the oracle (DESIGN §9's table), a frame the
// oracle accepts only by it, and whether the scanner keeps it.
type languageRow struct {
	leniency string
	kept     bool
	frame    []byte
}

// languageRows is DESIGN §9's table of the oracle's leniencies, each with one
// or more frames that need it.
func languageRows() []languageRow {
	const (
		kept    = true
		dropped = false
	)
	control := func(fields ...*ber.Packet) *ber.Packet {
		return ber.NewConstructed(ber.ClassContext, 0).Append(ber.NewSequence().Append(fields...))
	}
	constructed := func(s string) *ber.Packet {
		return ber.NewConstructed(ber.ClassUniversal, ber.TagOctetString).Append(ber.NewOctetString(s))
	}
	substrings := func(parts ...*ber.Packet) func(op *ber.Packet) {
		return func(op *ber.Packet) {
			op.Children[6] = ber.NewConstructed(ber.ClassContext, uint32(FilterSubstrings)).Append(
				ber.NewOctetString("cn"), ber.NewSequence().Append(parts...))
		}
	}
	done := treeOp(&SearchResultDone{Result: Result{Code: ResultNoSuchObject, MatchedDN: "o=grid"}})
	entryChange := NewEntryChangeControl(ChangeModify)
	entryChange.Value = ber.Marshal(ber.NewSequence().Append(ber.NewEnumerated(ChangeModify),
		ber.NewOctetString("hn=old, o=grid"), ber.NewInteger(42)))
	entry := NewEntry(MustParseDN("hn=h1, o=grid")).Add("objectclass", "computer")
	return []languageRow{
		{"non-minimal long-form lengths", kept,
			longForm((&Message{ID: 6, Op: seedRequest(), Controls: []Control{{OID: "1.2.3", Value: []byte("v")}}}).Encode(), 4)},
		{"non-minimal long-form lengths", kept, longForm((&Message{ID: 3, Op: &SearchResultDone{}}).Encode(), 1)},
		{"a BOOLEAN TRUE other than 0xFF", kept, envelope(8, treeSearch(func(op *ber.Packet) {
			op.Children[5] = &ber.Packet{Tag: ber.TagBoolean, Value: []byte{0x01}}
		}))},
		{"EntryChangeNotification's OPTIONAL previousDN and changeNumber", kept,
			(&Message{ID: 15, Op: &SearchResultEntry{Entry: entry}, Controls: []Control{entryChange}}).Encode()},

		{"a constructed OCTET STRING", dropped, envelope(8, treeSearch(func(op *ber.Packet) { op.Children[0] = constructed("o=grid") }))},
		{"a constructed OCTET STRING", dropped, envelope(8, treeSearch(func(op *ber.Packet) { op.Children[7].Children[0] = constructed("hn") }))},
		{"a constructed OCTET STRING", dropped, envelope(10, ber.NewConstructed(ber.ClassApplication, appDelRequest).Append(ber.NewOctetString("hn=h1, o=grid")))},
		{"a constructed OCTET STRING", dropped, envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(
			ber.NewEnumerated(0), ber.NewSequence(), ber.NewOctetString("")))},

		{"a primitive where RFC 4511 has a SEQUENCE or a SET", dropped, envelope(9, treeOp(seedRequest()), &ber.Packet{Class: ber.ClassContext, Tag: 0})},
		{"a primitive where RFC 4511 has a SEQUENCE or a SET", dropped, envelope(3, treeOp(&SearchResultDone{}).Append(&ber.Packet{Class: ber.ClassContext, Tag: 3, Value: []byte("x")}))},
		{"a primitive where RFC 4511 has a SEQUENCE or a SET", dropped, envelope(8, treeSearch(func(op *ber.Packet) { op.Children[7] = &ber.Packet{Tag: ber.TagSequence} }))},

		{"INTEGER for ENUMERATED or the reverse, or a number of another type", dropped, envelope(8, treeSearch(func(op *ber.Packet) { op.Children[1] = ber.NewInteger(2) }))},
		{"INTEGER for ENUMERATED or the reverse, or a number of another type", dropped, envelope(3, ber.NewConstructed(ber.ClassApplication, appSearchDone).Append(
			ber.NewInteger(0), ber.NewOctetString(""), ber.NewOctetString("")))},
		{"INTEGER for ENUMERATED or the reverse, or a number of another type", dropped, ber.Marshal(ber.NewSequence().Append(ber.NewEnumerated(8), treeOp(seedRequest())))},

		{"a SearchRequest with fields after the eighth", dropped, envelope(8, treeSearch(func(op *ber.Packet) { op.Append(ber.NewNull()) }))},

		{"control fields out of order, an INTEGER criticality, or a field after the value", dropped,
			envelope(9, treeOp(seedRequest()), control(ber.NewOctetString("1.2.3"), ber.NewOctetString("v"), ber.NewBoolean(true)))},
		{"control fields out of order, an INTEGER criticality, or a field after the value", dropped,
			envelope(9, treeOp(seedRequest()), control(ber.NewOctetString("1.2.3"), ber.NewInteger(1)))},
		{"control fields out of order, an INTEGER criticality, or a field after the value", dropped,
			envelope(9, treeOp(seedRequest()), control(ber.NewOctetString("1.2.3"), ber.NewBoolean(false), ber.NewOctetString("v"), ber.NewNull()))},

		{"an element after the operation or its controls", dropped, envelope(9, treeOp(seedRequest()), ber.NewConstructed(ber.ClassContext, 0), ber.NewNull())},
		{"an element after the operation or its controls", dropped, envelope(9, treeOp(seedRequest()), ber.NewNull())},

		{"a field after an operation's last", dropped, envelope(3, done.Append(ber.NewNull()))},
		{"a field after an operation's last", dropped, envelope(1, treeOp(&BindRequest{Version: 3}).Append(ber.NewNull()))},

		{"ExtendedRequest and ExtendedResponse fields matched by tag number whatever their class", dropped,
			envelope(13, ber.NewConstructed(ber.ClassApplication, appExtendedRequest).Append(
				&ber.Packet{Class: ber.ClassApplication, Tag: 0, Value: []byte("1.2.3")}))},
		{"ExtendedRequest and ExtendedResponse fields matched by tag number whatever their class", dropped,
			envelope(14, treeOp(&ExtendedResponse{}).Append(&ber.Packet{Tag: 10, Value: []byte("1.2.3")}))},

		{"bind authentication and substring components matched by tag number whatever their class", dropped,
			envelope(1, ber.NewConstructed(ber.ClassApplication, appBindRequest).Append(ber.NewInteger(3), ber.NewOctetString(""),
				&ber.Packet{Class: ber.ClassApplication, Tag: 0, Value: []byte("pw")}))},
		{"bind authentication and substring components matched by tag number whatever their class", dropped,
			envelope(8, treeSearch(substrings(&ber.Packet{Tag: 1, Value: []byte("mid")})))},

		{"substring components out of order or repeated", dropped, envelope(8, treeSearch(substrings(ber.NewContextString(2, "z"), ber.NewContextString(0, "a"))))},
		{"substring components out of order or repeated", dropped, envelope(8, treeSearch(substrings(ber.NewContextString(2, "y"), ber.NewContextString(2, "z"))))},

		{"contents in an UnbindRequest", dropped, envelope(4, &ber.Packet{Class: ber.ClassApplication, Tag: appUnbindRequest, Value: []byte("x")})},

		{"high-tag-number identifiers", dropped, envelope(8, treeSearch(func(op *ber.Packet) {
			op.Children[7].Children[0] = &ber.Packet{Tag: 40, Value: []byte("hn")}
		}))},
	}
}

// controlValuesParse reports whether m's persistent-search and entry-change
// control values parse.
func controlValuesParse(m *Message) bool {
	for _, c := range m.Controls {
		var err error
		switch c.OID {
		case OIDPersistentSearch:
			_, err = ParsePersistentSearch(c)
		case OIDEntryChangeNotification:
			_, err = ParseEntryChange(c)
		}
		if err != nil {
			return false
		}
	}
	return true
}

// TestScanLanguage pins the language DESIGN §9 settles: the oracle accepts
// every row's frame, and the scanner accepts it iff the table keeps the
// leniency — as the message the oracle makes of it.
func TestScanLanguage(t *testing.T) {
	for _, row := range languageRows() {
		want := treeDecode(row.frame)
		if want == nil {
			t.Errorf("%s: the oracle refuses % x, so it shows no leniency", row.leniency, row.frame)
			continue
		}
		got, err := ScanMessage(row.frame)
		if accepted := err == nil && controlValuesParse(got); accepted != row.kept {
			t.Errorf("%s: scanner accepts %v (%v), the table says %v: % x", row.leniency, accepted, err, row.kept, row.frame)
		}
		if err == nil && !reflect.DeepEqual(unscanned(got), want) {
			t.Errorf("%s: scanned\n %#v\noracle\n %#v", row.leniency, got, want)
		}
	}
}

// scanSeeds adds frames of every kind to f: every corpus message with and
// without controls, and every seed set.
func scanSeeds(f *testing.F) {
	ctls := []Control{{OID: obs.OIDTraceRequest, Value: obs.EncodeTraceRequest("t1", 1)}, {OID: "1.2.3", Criticality: true}}
	for _, m := range wireCorpus() {
		f.Add(m.Encode())
		if m.Controls == nil {
			m.Controls = ctls
			f.Add(m.Encode())
		}
	}
	for _, frame := range entrySeeds() {
		f.Add(frame)
	}
	requestDoneSeeds(f)
}

// requestDoneSeeds adds the request and done seeds and the language table's
// frames to f.
func requestDoneSeeds(f *testing.F) {
	for _, frame := range requestSeeds() {
		f.Add(frame)
	}
	for _, frame := range doneSeeds() {
		f.Add(frame)
	}
	for _, row := range languageRows() {
		f.Add(row.frame)
	}
}

// FuzzScanMessage holds the scanner to the oracle (oracle_test.go):
//
//   - whatever the scanner accepts, in the client's mode and the server's,
//     the oracle accepts, as a reflect.DeepEqual message that keeps nothing
//     of the frame it was scanned from;
//   - whatever the oracle accepts, the scanner accepts in this package's own
//     encoding, as the message the oracle made;
//   - a result entry's wire path accepts what ScanMessage does, keeps the
//     name bytes iff they are DN.String(), materializes the attributes the
//     oracle decodes (decodeRawAttrs ≡ decodeAttrList), and relays a frame
//     that decodes to the entry that came in.
func FuzzScanMessage(f *testing.F) {
	scanSeeds(f)
	f.Fuzz(checkScan)
}

// FuzzScanSearchRequest replays the request and done seeds and the language
// table through FuzzScanMessage's property.
func FuzzScanSearchRequest(f *testing.F) {
	requestDoneSeeds(f)
	f.Fuzz(checkScan)
}

// checkScan is FuzzScanMessage's property on one frame.
func checkScan(t *testing.T, frame []byte) {
	want := treeDecode(frame)
	if n, err := ber.FrameLen(frame); want != nil && (err != nil || n != len(frame)) {
		t.Fatalf("FrameLen = %d, %v for a %d-byte frame the oracle accepts", n, err, len(frame))
	}
	for _, server := range []bool{false, true} {
		in := bytes.Clone(frame)
		got, err := scanMessage(in, server)
		if err != nil {
			continue
		}
		if want == nil {
			t.Fatalf("scanner accepted a frame the oracle refuses: % x", frame)
		}
		poison(in)
		if !reflect.DeepEqual(unscanned(got), want) {
			t.Fatalf("scanned (server %v)\n %#v\noracle\n %#v", server, got, want)
		}
		checkRequestPlan(t, got)
	}
	if want != nil {
		canon := want.Encode()
		got, err := ScanMessage(canon)
		if err != nil {
			t.Fatalf("scanner refused our own encoding (%v) of a message the oracle accepts: % x", err, canon)
		}
		if !reflect.DeepEqual(unscanned(got), want) {
			t.Fatalf("scanned our own encoding\n %#v\noracle\n %#v", got, want)
		}
	}
	checkWireEntry(t, frame, want)
	checkDone(t, frame)
}

// unscanned returns m as the oracle builds it: a scanned search request
// without what its scan keeps beside its eight fields, which
// checkRequestPlan checks.
func unscanned(m *Message) *Message {
	r, ok := m.Op.(*SearchRequest)
	if !ok || r.scanned == nil {
		return m
	}
	cp, op := *m, *r
	op.scanned = nil
	cp.Op = &op
	return &cp
}

// planEntries are the entries checkRequestPlan matches plans against:
// values of every filter kind the seeds use, in more than one case, as
// numbers and as text.
var planEntries = []*Entry{
	NewEntry(MustParseDN("hn=h1, ou=s0, o=grid")).Add("objectclass", "computer").Add("hn", "h1").Add("load5", "0.5"),
	NewEntry(MustParseDN("hn=H2, ou=s0, o=grid")).Add("objectClass", "Computer").Add("HN", "H2").Add("cpucount", "16"),
	NewEntry(MustParseDN("cn=hostX, o=grid")).Add("objectclass", "host").Add("cn", "hostX", "ho st X"),
	NewEntry(MustParseDN("cn=mid, o=grid")).Add("cn", "amidst", "a", "z", "b"),
	NewEntry(MustParseDN("cn=x, o=grid")).Add("cn", "X").Add("a", "1").Add("b", "2").Add("d", "4").Add("e", "5").Add("f", "6").Add("g", "7"),
	NewEntry(MustParseDN("cn=y, o=grid")).Add("a", "1").Add("c", "30").Add("d", "3").Add("e", "50"),
	NewEntry(MustParseDN("o=grid")).Add("objectclass", "organization"),
	NewEntry(MustParseDN("hn=h3, ou=s1, o=grid")).Add("objectclass", "computer").Add("hn", "h3", "h1").Add("rack", "r1"),
	NewEntry(DN{}),
}

// checkRequestPlan is checkScan's property of a scanned search request:
// what the scan cut and compiled is what a handler would make of the
// request itself — Base is ParseDN(BaseDN), as an error or as an equal DN
// rendering the same, and Plan matches exactly the entries of planEntries
// that Filter.Compile() matches.
func checkRequestPlan(t *testing.T, m *Message) {
	r, ok := m.Op.(*SearchRequest)
	if !ok {
		return
	}
	if ss := r.scanned; ss == nil || ss.baseText != r.BaseDN || ss.plan.Source() != r.Filter {
		t.Fatalf("a scanned request %+v does not hold its own base DN and plan", r)
	}
	base, err := r.Base()
	want, wantErr := ParseDN(r.BaseDN)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Base of %q: %v, ParseDN: %v", r.BaseDN, err, wantErr)
	}
	if err == nil && (!base.Equal(want) || base.String() != want.String()) {
		t.Fatalf("Base of %q = %q, ParseDN %q", r.BaseDN, base, want)
	}
	plan, compiled := r.Plan(), r.Filter.Compile()
	for _, e := range planEntries {
		if got, want := plan.Matches(e), compiled.Matches(e); got != want {
			t.Fatalf("Plan of %s matches %q: %v, Filter.Compile: %v", r.Filter, e.DN, got, want)
		}
	}
}

// checkDone is checkScan's property of a collected search's done message:
// scanDone accepts what ScanMessage accepts and builds the same message.
func checkDone(t *testing.T, frame []byte) {
	var s scanner
	if _, op, _ := s.envelope(frame); s.err != nil || op[0] != idSearchDone {
		return
	}
	want, wantErr := ScanMessage(frame)
	var into doneMessage
	got, err := scanDone(frame, &into)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("scanDone refuses %v, ScanMessage %v: % x", err, wantErr, frame)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDone\n %#v\nScanMessage\n %#v", got, want)
	}
}

// checkWireEntry is checkScan's property of a result entry's wire path.
func checkWireEntry(t *testing.T, frame []byte, want *Message) {
	var w wireEntries
	id, e, isEntry, err := scanFrame(&w, frame)
	if !isEntry {
		return
	}
	if _, scanErr := ScanMessage(frame); (err == nil) != (scanErr == nil) {
		t.Fatalf("wire path refuses %v, ScanMessage %v: % x", err, scanErr, frame)
	}
	if err != nil {
		return
	}
	sre := want.Op.(*SearchResultEntry)
	if !reflect.DeepEqual(e.DN, sre.Entry.DN) || id != want.ID {
		t.Fatalf("entry %d %q, oracle %d %q", id, e.DN, want.ID, sre.Entry.DN)
	}
	// The name bytes are kept exactly when they are the text the encoder
	// renders, and re-sending them changes no byte of the relayed frame.
	var s scanner
	_, op, _ := s.envelope(frame)
	received, _ := s.searchEntry(op)
	if rendered := e.DN.String(); e.name != nil && string(e.name) != rendered {
		t.Fatalf("kept name %q, rendered %q", e.name, rendered)
	} else if e.name == nil && string(received) == rendered {
		t.Fatalf("canonical name %q not kept", received)
	}
	relayed := entryFrame(id, e) // before anything decoded it
	if rendered := entryFrame(id, e.WithDN(e.DN)); !bytes.Equal(relayed, rendered) {
		t.Fatalf("relayed frame with the kept name\n % x\ndiffers from the rendered one\n % x", relayed, rendered)
	}
	if !reflect.DeepEqual(e.Attributes(), sre.Entry.Attrs) {
		t.Fatalf("attributes %v, oracle %v", e.Attributes(), sre.Entry.Attrs)
	}
	list, err := ber.DecodeOwned(bytes.Clone(e.raw))
	if err != nil {
		t.Fatalf("kept attribute list does not decode: %v", err)
	}
	if viaTree, err := decodeAttrList(list); err != nil || !reflect.DeepEqual(decodeRawAttrs(e.raw), viaTree) {
		t.Fatalf("materialize %v, decodeAttrList %v (%v)", decodeRawAttrs(e.raw), viaTree, err)
	}
	if back := treeDecode(relayed); back == nil || !reflect.DeepEqual(back.Op, want.Op) || back.ID != id {
		t.Fatalf("relayed frame does not decode to the entry that came in:\n in  % x\n out % x", frame, relayed)
	}
}

// TestScanSeedsOutgrowInlineArrays: the seeds meant to outgrow the scan's
// inline arrays do, so the fuzz targets run the fallback of each.
func TestScanSeedsOutgrowInlineArrays(t *testing.T) {
	seeds := requestSeeds()
	var ss scannedSearch
	for name, outgrows := range map[string]func(r *SearchRequest) bool{
		"6-RDN base": func(r *SearchRequest) bool {
			base, _ := r.Base()
			return len(base) > len(ss.rdns) && len(base) > len(ss.avas)
		},
		"12-node filter": func(r *SearchRequest) bool {
			nodes, subs := r.Filter.planSize()
			return nodes == 12 && nodes > len(ss.nodes) && nodes > len(ss.plans) && subs > len(ss.psubs)
		},
		"frame past the inline copy": func(*SearchRequest) bool {
			return len(seeds["frame past the inline copy"]) > len(ss.frame)
		},
	} {
		m, err := ScanMessage(seeds[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !outgrows(m.Op.(*SearchRequest)) {
			t.Errorf("seed %q fits the scan's inline arrays", name)
		}
	}
}

// TestSearchRequestAllocationBudget: a scanned request is one allocation —
// the Message and SearchRequest together with the frame's copy, the filter's
// nodes, the attribute list, the base DN and the plan — for
// (&(objectclass=…)(hn=…)) and two attributes, where the oracle makes about
// 30. It took 4 while the frame's copy, the filter's nodes and the attribute
// list were allocations of their own, and its handler made 3 more of the
// base DN and the plan.
func TestSearchRequestAllocationBudget(t *testing.T) {
	frame := (&Message{ID: 7, Op: &SearchRequest{BaseDN: "ou=s0, o=grid", Scope: ScopeWholeSubtree,
		Filter:     MustParseFilter("(&(objectclass=computer)(hn=h1))"),
		Attributes: []string{"hn", "load5"}}}).Encode()
	n := testing.AllocsPerRun(100, func() {
		if _, err := scanMessage(frame, true); err != nil {
			t.Fatal(err)
		}
	})
	tree := testing.AllocsPerRun(100, func() { ParseMessageBytes(frame) })
	t.Logf("allocations per search request: scanned %.0f, oracle %.0f", n, tree)
	if n > 1 {
		t.Errorf("scanning a search request costs %.0f allocations, budget 1", n)
	}
}

// TestResultDoneZeroAlloc: a client reading the done message of a successful
// search builds the Message and nothing else — no copy, no strings.
func TestResultDoneZeroAlloc(t *testing.T) {
	frame := (&Message{ID: 7, Op: &SearchResultDone{}}).Encode()
	n := testing.AllocsPerRun(100, func() {
		if _, err := ScanMessage(frame); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("scanning a successful done makes %.0f allocations, want only its Message's", n)
	}
}

// TestScanDoneZeroAlloc: a collected search's done message, built into
// its op, costs nothing when the search succeeded (checkScan holds scanDone
// to ScanMessage on every done frame).
func TestScanDoneZeroAlloc(t *testing.T) {
	frame := (&Message{ID: 7, Op: &SearchResultDone{}}).Encode()
	var into doneMessage
	n := testing.AllocsPerRun(100, func() {
		if _, err := scanDone(frame, &into); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("scanning a successful done into an op makes %.0f allocations, want 0", n)
	}
}

// TestAddRequestAllocationBudget: a server scanning a GRRP registration Add
// copies the strings it keeps out of the frame one by one (unescaping the
// URL in the name builds one more) and cuts the rest from arrays — the
// Message and AddRequest together, the entry and its name's two arrays, one
// attribute array, one value array: 27 allocations, where the oracle makes
// 72.
func TestAddRequestAllocationBudget(t *testing.T) {
	const url = "ldap://gris7.example.org:2135/hn=h7, o=grid"
	e := NewEntry(MustParseDN("mds-vo-op=register").ChildAVA("grrp", url)).
		Add("objectclass", "mdsregistration").
		Add("grrp", url).
		Add("grrptype", "register").
		Add("issuedat", "2026-10-15T09:00:00.123456789Z").
		Add("validuntil", "2026-10-15T09:02:00.123456789Z").
		Add("mdstype", "gris").
		Add("vo", "alliance").
		Add("suffixdn", "hn=h7, o=grid")
	frame := (&Message{ID: 9, Op: &AddRequest{Entry: e}}).Encode()
	n := testing.AllocsPerRun(100, func() {
		if _, err := scanMessage(frame, true); err != nil {
			t.Fatal(err)
		}
	})
	tree := testing.AllocsPerRun(100, func() { ParseMessageBytes(frame) })
	t.Logf("allocations per registration Add: scanned %.0f, oracle %.0f", n, tree)
	if n > 27 || n > tree {
		t.Errorf("scanning a registration Add costs %.0f allocations, budget 27 (oracle %.0f)", n, tree)
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
		m, err := treeMessage(p)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, m.Encode())
		if _, done := m.Op.(*SearchResultDone); done {
			return replies, true
		}
	}
}

// TestServerAnswersIffAccepted: through a real connection, a server answers
// a search frame of the language table iff the table keeps its leniency, and
// a seed iff the oracle accepts it (the two agree on every seed) — with the
// replies its canonical form gets.
func TestServerAnswersIffAccepted(t *testing.T) {
	c, store := startTestServer(t)
	if err := store.Put(NewEntry(MustParseDN("hn=h1, ou=s0, o=grid")).Add("objectclass", "computer").
		Add("hn", "h1").Add("load5", "0.5")); err != nil {
		t.Fatal(err)
	}
	addr := c.conn.RemoteAddr().String()
	type search struct {
		frame  []byte
		answer bool
	}
	searches := map[string]search{}
	for i, row := range languageRows() {
		if m := treeDecode(row.frame); m != nil {
			if _, ok := m.Op.(*SearchRequest); ok {
				searches[fmt.Sprintf("%s (%d)", row.leniency, i)] = search{row.frame, row.kept}
			}
		}
	}
	for name, frame := range requestSeeds() {
		want := treeDecode(frame)
		if _, err := ScanMessage(frame); (err == nil) != (want != nil) {
			t.Errorf("%s: scanner accepts %v, oracle %v: a leniency outside the table", name, err == nil, want != nil)
		}
		searches[name] = search{frame, want != nil}
	}
	answered, refused := 0, 0
	for name, s := range searches {
		if n, err := ber.FrameLen(s.frame); err != nil || n != len(s.frame) {
			continue // the stream would frame it differently
		}
		want := treeDecode(s.frame)
		if want != nil && isPersistentSearch(want) {
			continue
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		if _, err := conn.Write(s.frame); err != nil {
			t.Fatal(err)
		}
		got, ok := readReplies(t, conn, r)
		if ok != s.answer {
			t.Errorf("%s: answered %v, want %v", name, ok, s.answer)
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
	if answered < 10 || refused < 10 {
		t.Errorf("only %d frames answered and %d refused: the frames no longer exercise both sides", answered, refused)
	}
}
