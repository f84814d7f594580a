package ldap

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mds2/internal/ber"
	"mds2/internal/softstate"
)

// wireCorpus builds messages covering every operation type, the control
// envelope, and length shapes that exercise both the short-form and
// long-form (shifted back-patch) paths of the direct emitter.
func wireCorpus() []*Message {
	long := strings.Repeat("x", 300) // forces multi-byte BER lengths
	entry := NewEntry(MustParseDN("queue=default, hn=hostX, o=grid")).
		Add("objectclass", "computer", "queue").
		Add("hn", "hostX").
		Add("system", "linux").
		Add("description", long).
		Add("load5", "0.42")
	msgs := []*Message{
		{ID: 1, Op: &BindRequest{Version: 3, Name: "cn=admin", Password: "secret"}},
		{ID: 2, Op: &BindRequest{Version: 3, Name: "cn=gsi", SASLMech: "GSI", SASLCreds: []byte{0, 1, 2, 0xff}}},
		{ID: 2, Op: &BindRequest{Version: 3, SASLMech: "EXTERNAL"}},                      // SASL, no creds
		{ID: 2, Op: &BindRequest{Version: 3, SASLMech: "EXTERNAL", SASLCreds: []byte{}}}, // SASL, empty creds
		{ID: 3, Op: &BindResponse{Result: Result{Code: ResultSuccess}}},
		{ID: 3, Op: &BindResponse{
			Result:      Result{Code: ResultSaslBindInProgress, Message: "step"},
			ServerCreds: []byte("challenge"),
		}},
		{ID: 4, Op: &UnbindRequest{}},
		{ID: 5, Op: &SearchRequest{
			BaseDN: "o=grid", Scope: ScopeWholeSubtree, DerefAlias: 3,
			SizeLimit: 100, TimeLimit: 30, TypesOnly: true,
			Filter:     MustParseFilter("(&(objectclass=computer)(|(system=mips irix)(system=linux))(!(cpucount<=8)))"),
			Attributes: []string{"hn", "load5"},
		}},
		{ID: 5, Op: &SearchRequest{BaseDN: "o=grid", Scope: ScopeBaseObject}}, // nil filter default
		{ID: 6, Op: &SearchResultEntry{Entry: entry}},
		{ID: 6, Op: &SearchResultEntry{Entry: NewEntry(MustParseDN("cn=alice+uid=42, o=grid"))}},
		{ID: 7, Op: &SearchResultReference{URLs: []string{
			"ldap://gris1.example.org:389/ou=s1,o=grid", "ldap://gris2.example.org"}}},
		{ID: 8, Op: &SearchResultDone{Result{Code: ResultSuccess}}},
		{ID: 8, Op: &SearchResultDone{Result{
			Code: ResultNoSuchObject, MatchedDN: "o=grid", Message: "no " + long,
			Referrals: []string{"ldap://other.example.org/o=grid"},
		}}},
		{ID: 9, Op: &AddRequest{Entry: entry}},
		{ID: 9, Op: &AddResponse{Result{Code: ResultEntryAlreadyExists, Message: "dup"}}},
		{ID: 10, Op: &DelRequest{DN: "hn=hostX, o=grid"}},
		{ID: 10, Op: &DelResponse{Result{Code: ResultSuccess}}},
		{ID: 11, Op: &ModifyRequest{DN: "hn=hostX, o=grid", Changes: []ModifyChange{
			{Op: ModReplace, Attr: Attribute{Name: "load5", Values: []string{"1.5"}}},
			{Op: ModAdd, Attr: Attribute{Name: "queue", Values: []string{"batch", "interactive"}}},
			{Op: ModDelete, Attr: Attribute{Name: "stale"}},
		}}},
		{ID: 11, Op: &ModifyResponse{Result{Code: ResultSuccess}}},
		{ID: 12, Op: &AbandonRequest{IDToAbandon: 5}},
		{ID: 13, Op: &ExtendedRequest{OID: "1.3.6.1.4.1.1466.20037"}},
		{ID: 13, Op: &ExtendedRequest{OID: "1.2.3.4", Value: []byte(long)}},
		{ID: 14, Op: &ExtendedResponse{Result: Result{Code: ResultSuccess}, OID: "1.2.3.4", Value: []byte{0xde, 0xad}}},
		{ID: 14, Op: &ExtendedResponse{Result: Result{Code: ResultProtocolError, Message: "nope"}}},
		{ID: 15, Op: &SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree,
			Filter: MustParseFilter("(objectclass=*)")},
			Controls: []Control{NewPersistentSearchControl(PersistentSearch{
				ChangeTypes: ChangeAll, ChangesOnly: true, ReturnECs: true})}},
		{ID: 15, Op: &SearchResultEntry{Entry: entry},
			Controls: []Control{NewEntryChangeControl(ChangeModify)}},
		{ID: 16, Op: &DelRequest{DN: "cn=x, o=grid"},
			Controls: []Control{{OID: "1.1.1", Criticality: true}, {OID: "1.1.2", Value: []byte{}}}},
	}
	// Filter shapes from the fuzz seeds: substrings, present, ranges, escapes.
	for _, f := range []string{
		"(load5=*)", "(cn=ho*st*X)", "(cn=*suffix)", "(cn=prefix*)",
		"(cn>=a)", "(cn<=z)", "(cn=paren\\29)", "(cn~=approx)",
	} {
		msgs = append(msgs, &Message{ID: 20, Op: &SearchRequest{
			BaseDN: "ou=s0, o=grid", Scope: ScopeSingleLevel, Filter: MustParseFilter(f)}})
	}
	return msgs
}

// encodeTree is the reference encoder: it builds the message as a
// ber.Packet tree and marshals it — executable documentation of the wire
// form, slow and obviously right, and the oracle the direct emitter
// (emit.go) is held to.
func encodeTree(m *Message) []byte {
	env := ber.NewSequence().Append(ber.NewInteger(m.ID), treeOp(m.Op))
	if len(m.Controls) > 0 {
		ctl := ber.NewConstructed(ber.ClassContext, 0)
		for _, c := range m.Controls {
			seq := ber.NewSequence().Append(ber.NewOctetString(c.OID))
			if c.Criticality {
				seq.Append(ber.NewBoolean(true))
			}
			if c.Value != nil {
				seq.Append(ber.NewOctetStringBytes(c.Value))
			}
			ctl.Append(seq)
		}
		env.Append(ctl)
	}
	return ber.Marshal(env)
}

// treeResult builds an LDAPResult with any trailing components.
func treeResult(tag uint32, r Result, extra ...*ber.Packet) *ber.Packet {
	p := ber.NewConstructed(ber.ClassApplication, tag).Append(
		ber.NewEnumerated(int64(r.Code)),
		ber.NewOctetString(r.MatchedDN),
		ber.NewOctetString(r.Message),
	)
	if len(r.Referrals) > 0 {
		ref := ber.NewConstructed(ber.ClassContext, 3)
		for _, u := range r.Referrals {
			ref.Append(ber.NewOctetString(u))
		}
		p.Append(ref)
	}
	return p.Append(extra...)
}

// treeEntry builds an entry-carrying operation: name, then the
// PartialAttributeList.
func treeEntry(tag uint32, e *Entry) *ber.Packet {
	attrs := ber.NewSequence()
	for _, a := range e.Attributes() {
		vals := ber.NewSet()
		for _, v := range a.Values {
			vals.Append(ber.NewOctetString(v))
		}
		attrs.Append(ber.NewSequence().Append(ber.NewOctetString(a.Name), vals))
	}
	return ber.NewConstructed(ber.ClassApplication, tag).Append(
		ber.NewOctetString(e.DN.String()), attrs)
}

// treeOp builds one operation's Packet tree.
func treeOp(op Op) *ber.Packet {
	switch o := op.(type) {
	case *BindRequest:
		p := ber.NewConstructed(ber.ClassApplication, appBindRequest).Append(
			ber.NewInteger(o.Version),
			ber.NewOctetString(o.Name),
		)
		if o.SASLMech == "" && o.SASLCreds == nil {
			return p.Append(ber.NewContextString(0, o.Password))
		}
		sasl := ber.NewConstructed(ber.ClassContext, 3).Append(ber.NewOctetString(o.SASLMech))
		if o.SASLCreds != nil {
			sasl.Append(ber.NewOctetStringBytes(o.SASLCreds))
		}
		return p.Append(sasl)
	case *BindResponse:
		var extra []*ber.Packet
		if o.ServerCreds != nil {
			extra = append(extra, &ber.Packet{Class: ber.ClassContext, Tag: 7, Value: o.ServerCreds})
		}
		return treeResult(appBindResponse, o.Result, extra...)
	case *UnbindRequest:
		return &ber.Packet{Class: ber.ClassApplication, Tag: appUnbindRequest}
	case *SearchRequest:
		attrs := ber.NewSequence()
		for _, a := range o.Attributes {
			attrs.Append(ber.NewOctetString(a))
		}
		filter := o.Filter
		if filter == nil {
			filter = Present("objectclass")
		}
		return ber.NewConstructed(ber.ClassApplication, appSearchRequest).Append(
			ber.NewOctetString(o.BaseDN),
			ber.NewEnumerated(int64(o.Scope)),
			ber.NewEnumerated(o.DerefAlias),
			ber.NewInteger(o.SizeLimit),
			ber.NewInteger(o.TimeLimit),
			ber.NewBoolean(o.TypesOnly),
			filter.ToBER(),
			attrs,
		)
	case *SearchResultEntry:
		return treeEntry(appSearchEntry, o.Entry)
	case *SearchResultReference:
		p := ber.NewConstructed(ber.ClassApplication, appSearchReference)
		for _, u := range o.URLs {
			p.Append(ber.NewOctetString(u))
		}
		return p
	case *SearchResultDone:
		return treeResult(appSearchDone, o.Result)
	case *AddRequest:
		return treeEntry(appAddRequest, o.Entry)
	case *AddResponse:
		return treeResult(appAddResponse, o.Result)
	case *DelRequest:
		return &ber.Packet{Class: ber.ClassApplication, Tag: appDelRequest, Value: []byte(o.DN)}
	case *DelResponse:
		return treeResult(appDelResponse, o.Result)
	case *ModifyRequest:
		changes := ber.NewSequence()
		for _, ch := range o.Changes {
			vals := ber.NewSet()
			for _, v := range ch.Attr.Values {
				vals.Append(ber.NewOctetString(v))
			}
			changes.Append(ber.NewSequence().Append(
				ber.NewEnumerated(ch.Op),
				ber.NewSequence().Append(ber.NewOctetString(ch.Attr.Name), vals),
			))
		}
		return ber.NewConstructed(ber.ClassApplication, appModifyRequest).Append(
			ber.NewOctetString(o.DN), changes)
	case *ModifyResponse:
		return treeResult(appModifyResponse, o.Result)
	case *AbandonRequest:
		return &ber.Packet{Class: ber.ClassApplication, Tag: appAbandonRequest,
			Value: ber.AppendInt64(nil, o.IDToAbandon)}
	case *ExtendedRequest:
		p := ber.NewConstructed(ber.ClassApplication, appExtendedRequest).Append(
			&ber.Packet{Class: ber.ClassContext, Tag: 0, Value: []byte(o.OID)})
		if o.Value != nil {
			p.Append(&ber.Packet{Class: ber.ClassContext, Tag: 1, Value: o.Value})
		}
		return p
	case *ExtendedResponse:
		var extra []*ber.Packet
		if o.OID != "" {
			extra = append(extra, &ber.Packet{Class: ber.ClassContext, Tag: 10, Value: []byte(o.OID)})
		}
		if o.Value != nil {
			extra = append(extra, &ber.Packet{Class: ber.ClassContext, Tag: 11, Value: o.Value})
		}
		return treeResult(appExtendedResp, o.Result, extra...)
	}
	panic(fmt.Sprintf("treeOp: no reference encoding for %T", op))
}

// TestEncodeDifferential pins the direct emitter to the Packet-tree
// reference encoder byte for byte: any divergence is a wire break.
func TestEncodeDifferential(t *testing.T) {
	for i, m := range wireCorpus() {
		direct := m.AppendTo(nil)
		tree := encodeTree(m)
		if !bytes.Equal(direct, tree) {
			t.Errorf("message %d (%T): direct emit diverges from tree\n direct % x\n tree   % x",
				i, m.Op, direct, tree)
		}
		// AppendTo must be append-only on a non-empty dst.
		prefixed := m.AppendTo([]byte("prefix"))
		if !bytes.HasPrefix(prefixed, []byte("prefix")) || !bytes.Equal(prefixed[6:], tree) {
			t.Errorf("message %d (%T): AppendTo corrupts existing dst bytes", i, m.Op)
		}
	}
}

// FuzzEncodeDecode: any bytes that scan as a message must re-encode
// identically through both encoders and survive a second round trip.
func FuzzEncodeDecode(f *testing.F) {
	for _, m := range wireCorpus() {
		f.Add(m.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ScanMessage(data)
		if err != nil {
			return
		}
		direct := m.AppendTo(nil)
		if tree := encodeTree(m); !bytes.Equal(direct, tree) {
			t.Fatalf("direct/tree divergence for %T:\n direct % x\n tree   % x", m.Op, direct, tree)
		}
		m2, err := ScanMessage(direct)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if again := m2.AppendTo(nil); !bytes.Equal(direct, again) {
			t.Fatalf("encoding not stable across round trips for %T", m.Op)
		}
	})
}

// stallExtHandler stalls Extended until released, so a client-side timeout
// fires while the operation is still pending server-side.
type stallExtHandler struct {
	BaseHandler
	stall chan struct{}
}

func (h *stallExtHandler) Extended(req *Request, op *ExtendedRequest) *ExtendedResponse {
	select {
	case <-h.stall:
	case <-req.Ctx.Done():
	}
	return &ExtendedResponse{Result: Result{Code: ResultSuccess}, OID: op.OID}
}

// TestClientTimeoutLeak is the regression test for the timeout-path leak:
// a timed-out round trip must remove its pending routing entry, and the
// late response must be counted as unknown without wedging the connection.
func TestClientTimeoutLeak(t *testing.T) {
	h := &stallExtHandler{stall: make(chan struct{})}
	srv := NewServer(h)
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

	fc := softstate.NewFakeClock()
	c.Clock = fc
	c.Timeout = 5 * time.Second

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Extended("1.2.3.4", nil)
		errCh <- err
	}()

	// The awaiting goroutine registers its FakeClock timer at some point
	// after the request hits the wire; keep advancing until it fires.
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-errCh:
			if err == nil || !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("want timeout error, got %v", err)
			}
			goto timedOut
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("operation never timed out on the fake clock")
		}
		fc.Advance(c.Timeout)
		time.Sleep(time.Millisecond)
	}
timedOut:
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("timed-out operation leaked %d pending entries", n)
	}
	if got := c.UnknownResponses.Value(); got != 0 {
		t.Fatalf("no unknown responses expected yet, counter at %d", got)
	}

	// Release the handler: the server's late response must be counted as
	// unknown, not delivered and not wedging the read loop.
	close(h.stall)
	for start := time.Now(); c.UnknownResponses.Value() == 0; {
		if time.Since(start) > 5*time.Second {
			t.Fatal("late response never counted as unknown")
		}
		time.Sleep(time.Millisecond)
	}

	// The connection must remain usable after the desync.
	c.Clock = softstate.RealClock{}
	if err := c.Bind("", ""); err != nil {
		t.Fatalf("connection unusable after late response: %v", err)
	}
}

// stallSearchHandler holds every search until the client abandons it, and
// reports the abandon.
type stallSearchHandler struct {
	BaseHandler
	abandoned chan struct{}
}

func (h *stallSearchHandler) Search(req *Request, _ *SearchRequest, _ SearchWriter) Result {
	<-req.Ctx.Done()
	select {
	case h.abandoned <- struct{}{}:
	default:
	}
	return Result{Code: ResultSuccess}
}

// TestSearchTimeoutOnInjectedClock: a collected search's Timeout runs on
// the client's Clock, like a round trip's. On a FakeClock an hour-long
// Timeout passes when the clock is advanced by an hour, whatever the wall
// clock says; the search fails with a timeout, leaves no pending entry
// behind, and is abandoned at the server.
func TestSearchTimeoutOnInjectedClock(t *testing.T) {
	h := &stallSearchHandler{abandoned: make(chan struct{}, 1)}
	srv := NewServer(h)
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
	fc := softstate.NewFakeClock()
	c.Clock, c.Timeout = fc, time.Hour

	errCh := make(chan error, 1)
	go func() {
		_, err := c.SearchWith(&SearchRequest{BaseDN: "o=grid", Scope: ScopeWholeSubtree}, nil)
		errCh <- err
	}()
	for start := time.Now(); c.pendingCount() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatal("search never registered")
		}
	}
	select {
	case err := <-errCh:
		t.Fatalf("search ended before the fake clock moved: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	// The search took its timer before it registered, so one step is
	// enough; keep stepping in case a slow scheduler says otherwise.
	deadline := time.Now().Add(10 * time.Second)
	for {
		fc.Advance(c.Timeout)
		select {
		case err = <-errCh:
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("search never timed out on the fake clock")
			}
			continue
		}
		break
	}
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want a timeout, got %v", err)
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("timed-out search leaked %d pending entries", n)
	}
	select {
	case <-h.abandoned:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the timed-out search abandoned")
	}
}

// heldSearches answers each search with three entries under its base and
// a done message, but only once the test closes that base's release
// channel, and whether or not the search was abandoned meanwhile.
type heldSearches struct {
	BaseHandler
	started chan string
	release map[string]chan struct{}
}

func (h *heldSearches) Search(_ *Request, req *SearchRequest, w SearchWriter) Result {
	h.started <- req.BaseDN
	<-h.release[req.BaseDN]
	for i := 0; i < 3; i++ {
		e := NewEntry(MustParseDN(fmt.Sprintf("hn=h%d, %s", i, req.BaseDN))).Add("objectclass", "computer")
		if err := w.SendEntry(e); err != nil {
			return Result{Code: ResultOther}
		}
	}
	return Result{Code: ResultSuccess}
}

// TestLateReplyNeverReachesRecycledOp: a search that times out gives up its
// routing state for good. Search 1 takes the op a completed search left for
// reuse and times out on the client's FakeClock; its reply arrives only
// while search 2 is in flight on the same Client. Search 2 gets exactly its
// own entries and done message, every frame of the late reply is counted in
// UnknownResponses, and search 2's op is kept for the next search.
func TestLateReplyNeverReachesRecycledOp(t *testing.T) {
	h := &heldSearches{started: make(chan string, 3), release: map[string]chan struct{}{
		"ou=warm": make(chan struct{}), "ou=late": make(chan struct{}), "ou=prompt": make(chan struct{}),
	}}
	released := map[string]bool{}
	release := func(base string) {
		released[base] = true
		close(h.release[base])
	}
	release("ou=warm")
	srv := NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { // a failed test leaves no handler waiting
		for base := range h.release {
			if !released[base] {
				release(base)
			}
		}
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fc := softstate.NewFakeClock()
	c.Clock, c.Timeout = fc, time.Hour

	reusable := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.free)
	}
	search := func(base string) (*SearchResult, error) {
		return c.SearchWith(&SearchRequest{BaseDN: base, Scope: ScopeWholeSubtree}, nil)
	}
	started := func(base string) {
		select {
		case got := <-h.started:
			if got != base {
				t.Fatalf("server started %q, want %q", got, base)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the search of %q never reached the server", base)
		}
	}
	sameEntries := func(what string, res *SearchResult, base string) {
		t.Helper()
		if len(res.Entries) != 3 || res.Result.Code != ResultSuccess {
			t.Fatalf("%s: %d entries, result %+v", what, len(res.Entries), res.Result)
		}
		for i, e := range res.Entries {
			if want := MustParseDN(fmt.Sprintf("hn=h%d, %s", i, base)); !e.DN.Equal(want) {
				t.Fatalf("%s: entry %d is %s, want %s", what, i, e.DN, want)
			}
		}
	}

	res, err := search("ou=warm")
	if err != nil {
		t.Fatal(err)
	}
	started("ou=warm")
	sameEntries("search 0", res, "ou=warm")
	if n := reusable(); n != 1 {
		t.Fatalf("a completed search left %d ops for reuse, want 1", n)
	}

	late := make(chan error, 1)
	go func() {
		_, err := search("ou=late")
		late <- err
	}()
	started("ou=late")
	// The search armed its timer before its request left, so one step of
	// the clock times it out.
	fc.Advance(c.Timeout)
	select {
	case err := <-late:
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("search 1: want a timeout, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search 1 never timed out on the fake clock")
	}
	if n, free := c.pendingCount(), reusable(); n != 0 || free != 0 {
		t.Fatalf("after the timeout: %d ops routable, %d kept for reuse; want 0 and 0", n, free)
	}

	prompt := make(chan *SearchResult, 1)
	go func() {
		res, err := search("ou=prompt")
		if err != nil {
			t.Errorf("search 2: %v", err)
		}
		prompt <- res
	}()
	started("ou=prompt")
	release("ou=late")
	for start := time.Now(); c.UnknownResponses.Value() < 4; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("late reply: %d of its 4 frames counted as unknown", c.UnknownResponses.Value())
		}
	}
	release("ou=prompt")
	select {
	case res := <-prompt:
		if res == nil {
			t.FailNow()
		}
		sameEntries("search 2", res, "ou=prompt")
	case <-time.After(5 * time.Second):
		t.Fatal("search 2 never completed")
	}
	if got := c.UnknownResponses.Value(); got != 4 {
		t.Fatalf("UnknownResponses = %d, want the late reply's 4 frames", got)
	}
	if n := reusable(); n != 1 {
		t.Fatalf("search 2 left %d ops for reuse, want 1", n)
	}
}

// BenchmarkMessageEncode compares the direct emitter against the
// Packet-tree reference path on a representative streamed search entry.
func BenchmarkMessageEncode(b *testing.B) {
	m := &Message{ID: 6, Op: &SearchResultEntry{Entry: NewEntry(
		MustParseDN("queue=default, hn=hostX, ou=s0, o=grid")).
		Add("objectclass", "computer").
		Add("hn", "hostX").
		Add("system", "linux").
		Add("osversion", "6.1").
		Add("cpucount", "16").
		Add("load5", "0.42")}}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = m.AppendTo(buf[:0])
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeTree(m)
		}
	})
}

func ExampleMessage_AppendTo() {
	m := &Message{ID: 1, Op: &DelRequest{DN: "hn=hostX, o=grid"}}
	fmt.Println(bytes.Equal(m.AppendTo(nil), encodeTree(m)))
	// Output: true
}
