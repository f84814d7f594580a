package ldap

import (
	"errors"
	"reflect"
	"testing"

	"mds2/internal/ber"
)

func roundTripMessage(t *testing.T, m *Message) *Message {
	t.Helper()
	back, err := ScanMessage(m.Encode())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return back
}

func TestBindRequestRoundTrip(t *testing.T) {
	m := &Message{ID: 1, Op: &BindRequest{Version: 3, Name: "cn=admin", Password: "secret"}}
	back := roundTripMessage(t, m)
	op := back.Op.(*BindRequest)
	if back.ID != 1 || op.Version != 3 || op.Name != "cn=admin" || op.Password != "secret" {
		t.Errorf("decoded %+v", op)
	}
}

func TestBindSASLRoundTrip(t *testing.T) {
	m := &Message{ID: 2, Op: &BindRequest{Version: 3, Name: "cn=gsi", SASLMech: "GSI", SASLCreds: []byte{1, 2, 3}}}
	op := roundTripMessage(t, m).Op.(*BindRequest)
	if op.SASLMech != "GSI" || !reflect.DeepEqual(op.SASLCreds, []byte{1, 2, 3}) {
		t.Errorf("decoded %+v", op)
	}
}

func TestBindResponseRoundTrip(t *testing.T) {
	m := &Message{ID: 2, Op: &BindResponse{
		Result:      Result{Code: ResultInvalidCredentials, Message: "bad password"},
		ServerCreds: []byte("challenge"),
	}}
	op := roundTripMessage(t, m).Op.(*BindResponse)
	if op.Code != ResultInvalidCredentials || op.Message != "bad password" || string(op.ServerCreds) != "challenge" {
		t.Errorf("decoded %+v", op)
	}
}

func TestSearchRequestRoundTrip(t *testing.T) {
	m := &Message{ID: 7, Op: &SearchRequest{
		BaseDN:     "o=grid",
		Scope:      ScopeWholeSubtree,
		SizeLimit:  100,
		TimeLimit:  30,
		TypesOnly:  true,
		Filter:     MustParseFilter("(&(objectclass=computer)(freecpus>=4))"),
		Attributes: []string{"hn", "load5"},
	}}
	op := roundTripMessage(t, m).Op.(*SearchRequest)
	if op.BaseDN != "o=grid" || op.Scope != ScopeWholeSubtree || op.SizeLimit != 100 ||
		op.TimeLimit != 30 || !op.TypesOnly {
		t.Errorf("decoded %+v", op)
	}
	if op.Filter.String() != "(&(objectclass=computer)(freecpus>=4))" {
		t.Errorf("filter = %s", op.Filter)
	}
	if !reflect.DeepEqual(op.Attributes, []string{"hn", "load5"}) {
		t.Errorf("attrs = %v", op.Attributes)
	}
}

func TestSearchRequestNilFilterDefaults(t *testing.T) {
	m := &Message{ID: 1, Op: &SearchRequest{BaseDN: "o=g"}}
	op := roundTripMessage(t, m).Op.(*SearchRequest)
	if op.Filter.String() != "(objectclass=*)" {
		t.Errorf("default filter = %s", op.Filter)
	}
}

func TestSearchResultEntryRoundTrip(t *testing.T) {
	e := NewEntry(MustParseDN("hn=hostX, o=grid")).
		Add("objectclass", "computer").
		Add("load5", "3.2")
	m := &Message{ID: 7, Op: &SearchResultEntry{Entry: e}}
	op := roundTripMessage(t, m).Op.(*SearchResultEntry)
	if !op.Entry.DN.Equal(e.DN) {
		t.Errorf("dn = %q", op.Entry.DN)
	}
	if op.Entry.First("load5") != "3.2" || !op.Entry.IsA("computer") {
		t.Errorf("entry = %s", op.Entry)
	}
}

func TestSearchDoneWithReferralsRoundTrip(t *testing.T) {
	m := &Message{ID: 3, Op: &SearchResultDone{Result: Result{
		Code:      ResultReferral,
		Referrals: []string{"ldap://a:389/o=x", "ldap://b:389/o=y"},
	}}}
	op := roundTripMessage(t, m).Op.(*SearchResultDone)
	if op.Code != ResultReferral || len(op.Referrals) != 2 || op.Referrals[1] != "ldap://b:389/o=y" {
		t.Errorf("decoded %+v", op)
	}
}

func TestSearchReferenceRoundTrip(t *testing.T) {
	m := &Message{ID: 4, Op: &SearchResultReference{URLs: []string{"ldap://gris1:389/hn=h"}}}
	op := roundTripMessage(t, m).Op.(*SearchResultReference)
	if len(op.URLs) != 1 || op.URLs[0] != "ldap://gris1:389/hn=h" {
		t.Errorf("decoded %+v", op)
	}
}

func TestAddDeleteModifyRoundTrip(t *testing.T) {
	e := NewEntry(MustParseDN("svc=giis, o=grid")).Add("objectclass", "mdsservice").Add("url", "ldap://x")
	add := roundTripMessage(t, &Message{ID: 5, Op: &AddRequest{Entry: e}}).Op.(*AddRequest)
	if !add.Entry.DN.Equal(e.DN) || add.Entry.First("url") != "ldap://x" {
		t.Errorf("add decoded %s", add.Entry)
	}

	del := roundTripMessage(t, &Message{ID: 6, Op: &DelRequest{DN: "svc=giis, o=grid"}}).Op.(*DelRequest)
	if del.DN != "svc=giis, o=grid" {
		t.Errorf("del decoded %+v", del)
	}

	mod := roundTripMessage(t, &Message{ID: 7, Op: &ModifyRequest{
		DN: "svc=giis, o=grid",
		Changes: []ModifyChange{
			{Op: ModReplace, Attr: Attribute{Name: "url", Values: []string{"ldap://y"}}},
			{Op: ModDelete, Attr: Attribute{Name: "old"}},
		},
	}}).Op.(*ModifyRequest)
	if len(mod.Changes) != 2 || mod.Changes[0].Op != ModReplace || mod.Changes[0].Attr.Values[0] != "ldap://y" {
		t.Errorf("mod decoded %+v", mod)
	}
	if mod.Changes[1].Op != ModDelete || len(mod.Changes[1].Attr.Values) != 0 {
		t.Errorf("mod change 2 %+v", mod.Changes[1])
	}
}

func TestAbandonExtendedUnbindRoundTrip(t *testing.T) {
	ab := roundTripMessage(t, &Message{ID: 9, Op: &AbandonRequest{IDToAbandon: 7}}).Op.(*AbandonRequest)
	if ab.IDToAbandon != 7 {
		t.Errorf("abandon %+v", ab)
	}
	ex := roundTripMessage(t, &Message{ID: 10, Op: &ExtendedRequest{OID: "1.2.3.4", Value: []byte("v")}}).Op.(*ExtendedRequest)
	if ex.OID != "1.2.3.4" || string(ex.Value) != "v" {
		t.Errorf("extended %+v", ex)
	}
	exr := roundTripMessage(t, &Message{ID: 11, Op: &ExtendedResponse{
		Result: Result{Code: ResultSuccess}, OID: "1.2.3.4", Value: []byte("r"),
	}}).Op.(*ExtendedResponse)
	if exr.OID != "1.2.3.4" || string(exr.Value) != "r" {
		t.Errorf("extended response %+v", exr)
	}
	if _, ok := roundTripMessage(t, &Message{ID: 12, Op: &UnbindRequest{}}).Op.(*UnbindRequest); !ok {
		t.Error("unbind type lost")
	}
}

func TestControlsRoundTrip(t *testing.T) {
	ps := NewPersistentSearchControl(PersistentSearch{ChangeTypes: ChangeAll, ChangesOnly: true, ReturnECs: true})
	m := &Message{ID: 13, Op: &SearchRequest{BaseDN: "o=g"}, Controls: []Control{ps}}
	back := roundTripMessage(t, m)
	if len(back.Controls) != 1 {
		t.Fatalf("controls = %d", len(back.Controls))
	}
	got, err := ParsePersistentSearch(back.Controls[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.ChangeTypes != ChangeAll || !got.ChangesOnly || !got.ReturnECs {
		t.Errorf("psearch = %+v", got)
	}
	if !back.Controls[0].Criticality {
		t.Error("criticality lost")
	}
}

func TestEntryChangeControlRoundTrip(t *testing.T) {
	c := NewEntryChangeControl(ChangeDelete)
	typ, err := ParseEntryChange(c)
	if err != nil || typ != ChangeDelete {
		t.Errorf("entry change = %d, %v", typ, err)
	}
	if _, err := ParseEntryChange(Control{OID: "wrong"}); err == nil {
		t.Error("wrong OID should fail")
	}
}

func TestFindControl(t *testing.T) {
	cs := []Control{{OID: "a"}, {OID: "b", Value: []byte("x")}}
	if c, ok := FindControl(cs, "b"); !ok || string(c.Value) != "x" {
		t.Error("FindControl b failed")
	}
	if _, ok := FindControl(cs, "c"); ok {
		t.Error("FindControl c should fail")
	}
}

func TestResultErrHelpers(t *testing.T) {
	if (Result{Code: ResultSuccess}).Err() != nil {
		t.Error("success should be nil error")
	}
	err := (Result{Code: ResultNoSuchObject, Message: "gone"}).Err()
	if err == nil || !IsCode(err, ResultNoSuchObject) {
		t.Errorf("err = %v", err)
	}
	if IsCode(err, ResultSuccess) {
		t.Error("IsCode mismatch")
	}
	if IsCode(nil, ResultSuccess) {
		t.Error("nil error has no code")
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	for _, bad := range [][]byte{
		{0x04, 0x00},                   // not a sequence
		{0x30, 0x03, 0x02, 0x01, 0x01}, // missing op
		{0x30, 0x05, 0x02, 0x01, 0x01, 0x42, 0x00, 0x00}, // trailing byte after the envelope
		{0x30, 0x05, 0x02, 0x01, 0x01, 0x5f, 0x00},       // unknown operation
	} {
		if _, err := ScanMessage(bad); !errors.Is(err, ErrBadMessage) {
			t.Errorf("% x: error %v, want ErrBadMessage", bad, err)
		}
	}
	if _, err := DecodeMessage(ber.NewSequence().Append(ber.NewInteger(1))); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodeMessage of an envelope without an operation: %v", err)
	}
}

func BenchmarkMessageEncodeSearch(b *testing.B) {
	m := &Message{ID: 7, Op: &SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter:     MustParseFilter("(&(objectclass=computer)(freecpus>=4))"),
		Attributes: []string{"hn", "load5"},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Encode()
	}
}

func BenchmarkMessageDecodeSearch(b *testing.B) {
	enc := (&Message{ID: 7, Op: &SearchRequest{
		BaseDN: "o=grid", Scope: ScopeWholeSubtree,
		Filter:     MustParseFilter("(&(objectclass=computer)(freecpus>=4))"),
		Attributes: []string{"hn", "load5"},
	}}).Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ScanMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}
