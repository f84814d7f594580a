package ber

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntegerRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1 << 20,
		-(1 << 20), 1<<62 - 1, -(1 << 62), 9223372036854775807, -9223372036854775808}
	for _, v := range cases {
		p := NewInteger(v)
		got, err := p.Int64()
		if err != nil {
			t.Fatalf("Int64(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d: got %d", v, got)
		}
	}
}

func TestIntegerMinimalEncoding(t *testing.T) {
	// X.690 8.3.2: the encoding must be as short as possible.
	cases := map[int64]int{0: 1, 1: 1, 127: 1, 128: 2, -128: 1, -129: 2, 255: 2, 65535: 3}
	for v, want := range cases {
		if got := len(AppendInt64(nil, v)); got != want {
			t.Errorf("AppendInt64(%d): %d octets, want %d", v, got, want)
		}
	}
}

func TestIntegerRoundTripQuick(t *testing.T) {
	f := func(v int64) bool {
		got, err := ParseInt64(AppendInt64(nil, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBooleanRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		got, err := NewBoolean(v).Bool()
		if err != nil || got != v {
			t.Errorf("boolean %v: got %v err %v", v, got, err)
		}
	}
}

func TestMarshalDecodeSimple(t *testing.T) {
	seq := NewSequence().Append(
		NewInteger(5),
		NewOctetString("cn=test"),
		NewBoolean(true),
	)
	b := Marshal(seq)
	got, err := DecodeFull(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Constructed || got.Tag != TagSequence || len(got.Children) != 3 {
		t.Fatalf("decoded %s", got)
	}
	if v, _ := got.Child(0).Int64(); v != 5 {
		t.Errorf("child 0 = %d, want 5", v)
	}
	if got.Child(1).Str() != "cn=test" {
		t.Errorf("child 1 = %q", got.Child(1).Str())
	}
	if v, _ := got.Child(2).Bool(); !v {
		t.Error("child 2 = false, want true")
	}
}

func TestGoldenEncodings(t *testing.T) {
	// Known-good encodings checked against RFC 4511 examples and OpenLDAP.
	cases := []struct {
		name string
		p    *Packet
		want []byte
	}{
		{"int 0", NewInteger(0), []byte{0x02, 0x01, 0x00}},
		{"int 127", NewInteger(127), []byte{0x02, 0x01, 0x7f}},
		{"int 128", NewInteger(128), []byte{0x02, 0x02, 0x00, 0x80}},
		{"int -128", NewInteger(-128), []byte{0x02, 0x01, 0x80}},
		{"bool true", NewBoolean(true), []byte{0x01, 0x01, 0xff}},
		{"null", NewNull(), []byte{0x05, 0x00}},
		{"octets", NewOctetString("hi"), []byte{0x04, 0x02, 'h', 'i'}},
		{"empty seq", NewSequence(), []byte{0x30, 0x00}},
		{"ctx str", NewContextString(7, "x"), []byte{0x87, 0x01, 'x'}},
		{"appl constructed", NewConstructed(ClassApplication, 3).Append(NewNull()), []byte{0x63, 0x02, 0x05, 0x00}},
	}
	for _, tc := range cases {
		if got := Marshal(tc.p); !bytes.Equal(got, tc.want) {
			t.Errorf("%s: got % x, want % x", tc.name, got, tc.want)
		}
	}
}

func TestHighTagNumbers(t *testing.T) {
	for _, tag := range []uint32{31, 32, 127, 128, 16383, 16384, 1 << 20} {
		p := &Packet{Class: ClassContext, Tag: tag, Value: []byte("v")}
		got, err := DecodeFull(Marshal(p))
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		if got.Tag != tag || got.Class != ClassContext || got.Str() != "v" {
			t.Errorf("tag %d: decoded %s", tag, got)
		}
	}
}

func TestLongFormLength(t *testing.T) {
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	p := NewOctetStringBytes(big)
	enc := Marshal(p)
	// 300 > 127 so length must use the long form: 0x82 0x01 0x2c.
	if enc[1] != 0x82 || enc[2] != 0x01 || enc[3] != 0x2c {
		t.Fatalf("length encoding: % x", enc[:4])
	}
	got, err := DecodeFull(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, big) {
		t.Error("long-form payload mismatch")
	}
}

func TestNonMinimalLengthAccepted(t *testing.T) {
	// BER (unlike DER) permits non-minimal length octets; peers emit them.
	enc := []byte{0x04, 0x82, 0x00, 0x02, 'h', 'i'}
	got, err := DecodeFull(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Str() != "hi" {
		t.Errorf("got %q", got.Str())
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"tag only", []byte{0x30}},
		{"truncated contents", []byte{0x04, 0x05, 'a'}},
		{"indefinite", []byte{0x30, 0x80, 0x00, 0x00}},
		{"huge length", []byte{0x04, 0x84, 0x7f, 0xff, 0xff, 0xff}},
		{"trailing garbage", []byte{0x05, 0x00, 0xff}},
		{"bad high tag", []byte{0x1f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	}
	for _, tc := range cases {
		if _, err := DecodeFull(tc.in); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDecodeDepthLimit(t *testing.T) {
	// Construct nesting deeper than MaxDepth by hand.
	b := []byte{0x05, 0x00}
	for i := 0; i < MaxDepth+2; i++ {
		inner := b
		b = append([]byte{0x30}, appendLength(nil, len(inner))...)
		b = append(b, inner...)
	}
	if _, err := DecodeFull(b); err != ErrTooDeep {
		t.Errorf("got %v, want ErrTooDeep", err)
	}
}

func TestReadPacketStream(t *testing.T) {
	var stream bytes.Buffer
	msgs := []*Packet{
		NewSequence().Append(NewInteger(1), NewOctetString("one")),
		NewSequence().Append(NewInteger(2), NewOctetString("two")),
		NewOctetStringBytes(make([]byte, 200)), // long-form length
	}
	for _, m := range msgs {
		stream.Write(Marshal(m))
	}
	for i, want := range msgs {
		got, err := ReadPacket(&stream)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(Marshal(got), Marshal(want)) {
			t.Errorf("msg %d: mismatch", i)
		}
	}
	if _, err := ReadPacket(&stream); err != io.EOF {
		t.Errorf("after stream end: %v, want EOF", err)
	}
}

func TestReadPacketHighTag(t *testing.T) {
	p := &Packet{Class: ClassContext, Tag: 500, Value: []byte("hello")}
	got, err := ReadPacket(bytes.NewReader(Marshal(p)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 500 || got.Str() != "hello" {
		t.Errorf("decoded %s %q", got, got.Str())
	}
}

func TestReadPacketTruncated(t *testing.T) {
	enc := Marshal(NewOctetString("hello world"))
	for cut := 1; cut < len(enc); cut++ {
		if _, err := ReadPacket(bytes.NewReader(enc[:cut])); err == nil {
			t.Errorf("cut at %d: expected error", cut)
		}
	}
}

// randomPacket builds a random element tree for the round-trip property.
func randomPacket(r *rand.Rand, depth int) *Packet {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return NewInteger(r.Int63() - r.Int63())
		case 1:
			b := make([]byte, r.Intn(40))
			r.Read(b)
			return NewOctetStringBytes(b)
		case 2:
			return NewBoolean(r.Intn(2) == 0)
		default:
			return &Packet{Class: Class(r.Intn(4)), Tag: uint32(r.Intn(1 << 14)), Value: []byte{byte(r.Intn(256))}}
		}
	}
	p := NewConstructed(Class(r.Intn(4)), uint32(r.Intn(200)))
	// Universal constructed elements keep standard composite tags to stay
	// well-formed; other classes may use any tag.
	if p.Class == ClassUniversal {
		p.Tag = TagSequence
	}
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		p.Append(randomPacket(r, depth-1))
	}
	return p
}

func packetsEqual(a, b *Packet) bool {
	if a.Class != b.Class || a.Constructed != b.Constructed || a.Tag != b.Tag {
		return false
	}
	if !a.Constructed {
		return bytes.Equal(a.Value, b.Value)
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !packetsEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := randomPacket(r, 5)
		got, err := DecodeFull(Marshal(p))
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !packetsEqual(p, got) {
			t.Fatalf("iter %d: tree mismatch:\n in %v\nout %v", i, p, got)
		}
	}
}

func TestRoundTripQuickStrings(t *testing.T) {
	f := func(s string) bool {
		got, err := DecodeFull(Marshal(NewOctetString(s)))
		return err == nil && got.Str() == s
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPacketStringDiagnostics(t *testing.T) {
	if s := NewSequence().String(); s == "" {
		t.Error("empty diagnostic")
	}
	var nilP *Packet
	if nilP.String() != "<nil>" {
		t.Error("nil diagnostic")
	}
	if !reflect.DeepEqual(NewNull().Value, []byte(nil)) {
		t.Error("null has contents")
	}
}

func BenchmarkMarshalSearchLikeMessage(b *testing.B) {
	msg := NewSequence().Append(
		NewInteger(7),
		NewConstructed(ClassApplication, 3).Append(
			NewOctetString("hn=hostX, o=grid"),
			NewEnumerated(2),
			NewEnumerated(0),
			NewInteger(0),
			NewInteger(0),
			NewBoolean(false),
			NewConstructed(ClassContext, 3).Append(
				NewOctetString("objectclass"),
				NewOctetString("computer"),
			),
			NewSequence().Append(NewOctetString("cpu"), NewOctetString("load5")),
		),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(msg)
	}
}

func BenchmarkDecodeSearchLikeMessage(b *testing.B) {
	msg := Marshal(NewSequence().Append(
		NewInteger(7),
		NewConstructed(ClassApplication, 3).Append(
			NewOctetString("hn=hostX, o=grid"),
			NewEnumerated(2),
			NewConstructed(ClassContext, 3).Append(
				NewOctetString("objectclass"),
				NewOctetString("computer"),
			),
		),
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFull(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameLenAgreesWithReadPacket: the in-place framer a buffering reader
// uses frames every stream exactly where ReadPacket does — the total length
// as soon as the header is in, zero before, the same refusals — and Element
// splits what it framed the way Decode does.
func TestFrameLenAgreesWithReadPacket(t *testing.T) {
	long := bytes.Repeat([]byte("x"), 300)
	frames := [][]byte{
		Marshal(NewOctetString("foo")),
		Marshal(NewOctetStringBytes(long)),
		Marshal(NewSequence().Append(NewInteger(7), NewOctetStringBytes(long))),
		Marshal(&Packet{Class: ClassContext, Tag: 1000, Value: []byte("hi")}), // high-tag form
		{0x04, 0x83, 0, 0, 1, 'x'},                                            // non-minimal length
	}
	for _, frame := range frames {
		for cut := 0; cut <= len(frame); cut++ {
			n, err := FrameLen(frame[:cut])
			if err != nil {
				t.Fatalf("FrameLen(% x): %v", frame[:cut], err)
			}
			if n != 0 && n != len(frame) {
				t.Fatalf("FrameLen(% x) = %d, frame is %d bytes", frame[:cut], n, len(frame))
			}
			if _, rerr := ReadPacket(bytes.NewReader(frame[:cut])); (rerr == nil) != (n != 0 && cut >= n) {
				t.Fatalf("cut %d of % x: FrameLen %d, ReadPacket %v", cut, frame, n, rerr)
			}
		}
		p, err := DecodeOwned(append([]byte(nil), frame...))
		if err != nil {
			t.Fatal(err)
		}
		id, contents, rest, err := Element(frame)
		if p.Tag >= 0x1f {
			if err != ErrBadTag {
				t.Fatalf("Element on a high-tag identifier: %v", err)
			}
			continue
		}
		if err != nil || len(rest) != 0 || id&0x1f != byte(p.Tag) || (!p.Constructed && !bytes.Equal(contents, p.Value)) {
			t.Fatalf("Element(% x) = %#x, % x, % x, %v", frame, id, contents, rest, err)
		}
	}
	for _, bad := range []struct {
		in   []byte
		want error
	}{
		{[]byte{0x30, 0x80}, ErrIndefinite},
		{[]byte{0x30, 0x85, 0, 0, 0, 0, 1}, ErrTooLarge},
		{[]byte{0x30, 0x84, 0x7f, 0xff, 0xff, 0xff}, ErrTooLarge},
		{[]byte{0x1f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00}, ErrBadTag},
	} {
		if _, err := FrameLen(bad.in); err != bad.want {
			t.Errorf("FrameLen(% x) = %v, want %v", bad.in, err, bad.want)
		}
		if _, err := ReadPacket(bytes.NewReader(bad.in)); err != bad.want {
			t.Errorf("ReadPacket(% x) = %v, want %v", bad.in, err, bad.want)
		}
	}
	if _, _, _, err := Element([]byte{0x04, 5, 'x'}); err != ErrTruncated {
		t.Errorf("Element on a short buffer: %v", err)
	}
}
