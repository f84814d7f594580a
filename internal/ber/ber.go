// Package ber implements the subset of ITU-T X.690 Basic Encoding Rules
// needed to carry LDAPv3 protocol messages (RFC 4511) over a byte stream.
//
// The standard library's encoding/asn1 package implements DER marshaling of
// Go structs, which is both too strict (LDAP peers may emit non-minimal BER
// lengths) and too rigid (LDAP messages are deeply tagged unions that do not
// map onto static struct types). This package instead works on bytes: a
// Builder emits elements straight into a buffer (emit.go), and FrameLen,
// ReadFrame and Element frame and split them where they lie, for a scanner
// that walks a message in place (internal/ldap's wire.go).
//
// The explicit tree of Packets — Marshal, Decode*, ReadPacket* — is the
// reference codec: slow and obviously right, it is what tests hold the
// Builder and the scanners to, byte for byte and message for message.
//
// Only definite-length encodings are supported; LDAP never uses the
// indefinite form.
package ber

import (
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// Class is the 2-bit tag class of a BER identifier octet.
type Class uint8

// Tag classes.
const (
	ClassUniversal   Class = 0
	ClassApplication Class = 1
	ClassContext     Class = 2
	ClassPrivate     Class = 3
)

func (c Class) String() string {
	switch c {
	case ClassUniversal:
		return "universal"
	case ClassApplication:
		return "application"
	case ClassContext:
		return "context"
	case ClassPrivate:
		return "private"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Universal tag numbers used by LDAP.
const (
	TagBoolean     uint32 = 0x01
	TagInteger     uint32 = 0x02
	TagOctetString uint32 = 0x04
	TagNull        uint32 = 0x05
	TagEnumerated  uint32 = 0x0a
	TagSequence    uint32 = 0x10
	TagSet         uint32 = 0x11
)

// Limits protecting the decoder from hostile or corrupt input.
const (
	// MaxElementSize bounds the contents length of any single element.
	MaxElementSize = 16 << 20
	// MaxDepth bounds the nesting depth of constructed elements.
	MaxDepth = 64
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("ber: truncated element")
	ErrTooLarge   = errors.New("ber: element exceeds size limit")
	ErrTooDeep    = errors.New("ber: nesting exceeds depth limit")
	ErrIndefinite = errors.New("ber: indefinite lengths are not supported")
	ErrBadTag     = errors.New("ber: malformed tag")
)

// Packet is one BER element: either a primitive holding raw contents bytes,
// or a constructed element holding child elements. The zero value is an
// empty universal primitive.
type Packet struct {
	Class       Class
	Constructed bool
	Tag         uint32
	Value       []byte    // contents when !Constructed
	Children    []*Packet // contents when Constructed
	// viewOK marks a packet decoded from a buffer the decoder owns outright
	// (ReadPacket): Str may then return a zero-copy view of Value, since the
	// backing array is immutable for as long as any view keeps it alive.
	// Packets decoded from caller-reused buffers (Decode, ReadPacketBuf)
	// leave it false and Str copies.
	viewOK bool
	// san tracks the reuse generation of the frame buffer this packet
	// aliases; zero-sized outside -tags mdsdebug builds.
	san packetSan
}

// NewSequence returns an empty universal SEQUENCE.
func NewSequence() *Packet {
	return &Packet{Class: ClassUniversal, Constructed: true, Tag: TagSequence}
}

// NewSet returns an empty universal SET.
func NewSet() *Packet {
	return &Packet{Class: ClassUniversal, Constructed: true, Tag: TagSet}
}

// NewConstructed returns an empty constructed element with the given class
// and tag, used for APPLICATION- and context-tagged LDAP composites.
func NewConstructed(class Class, tag uint32) *Packet {
	return &Packet{Class: class, Constructed: true, Tag: tag}
}

// NewBoolean returns a universal BOOLEAN element.
func NewBoolean(v bool) *Packet {
	b := byte(0x00)
	if v {
		b = 0xff
	}
	return &Packet{Class: ClassUniversal, Tag: TagBoolean, Value: []byte{b}}
}

// NewInteger returns a universal INTEGER element holding v in the minimal
// two's-complement form.
func NewInteger(v int64) *Packet {
	return &Packet{Class: ClassUniversal, Tag: TagInteger, Value: AppendInt64(nil, v)}
}

// NewEnumerated returns a universal ENUMERATED element.
func NewEnumerated(v int64) *Packet {
	return &Packet{Class: ClassUniversal, Tag: TagEnumerated, Value: AppendInt64(nil, v)}
}

// NewOctetString returns a universal OCTET STRING holding a copy of s.
func NewOctetString(s string) *Packet {
	return &Packet{Class: ClassUniversal, Tag: TagOctetString, Value: []byte(s)}
}

// NewOctetStringBytes returns a universal OCTET STRING holding b (not copied).
func NewOctetStringBytes(b []byte) *Packet {
	return &Packet{Class: ClassUniversal, Tag: TagOctetString, Value: b}
}

// NewNull returns a universal NULL element.
func NewNull() *Packet {
	return &Packet{Class: ClassUniversal, Tag: TagNull}
}

// NewContextString returns a context-tagged primitive holding s, the common
// LDAP idiom for IMPLICIT OCTET STRING fields.
func NewContextString(tag uint32, s string) *Packet {
	return &Packet{Class: ClassContext, Tag: tag, Value: []byte(s)}
}

// Append adds children to a constructed packet and returns it, enabling
// fluent message construction.
func (p *Packet) Append(children ...*Packet) *Packet {
	p.Children = append(p.Children, children...)
	return p
}

// Child returns the i'th child, or nil if out of range.
func (p *Packet) Child(i int) *Packet {
	if i < 0 || i >= len(p.Children) {
		return nil
	}
	return p.Children[i]
}

// Bool interprets a primitive contents as a BOOLEAN.
func (p *Packet) Bool() (bool, error) {
	p.san.check()
	if p.Constructed || len(p.Value) != 1 {
		return false, fmt.Errorf("ber: not a boolean: %s", p)
	}
	return p.Value[0] != 0, nil
}

// Int64 interprets a primitive contents as a two's-complement INTEGER or
// ENUMERATED of at most 8 octets.
func (p *Packet) Int64() (int64, error) {
	p.san.check()
	if p.Constructed {
		return 0, fmt.Errorf("ber: not an integer: constructed %s", p)
	}
	return ParseInt64(p.Value)
}

// Str returns the primitive contents as a string. For packets decoded by
// ReadPacket the string is a zero-copy view into the decoder-owned frame
// buffer; otherwise it is a copy.
func (p *Packet) Str() string {
	p.san.check()
	if p.viewOK {
		return View(p.Value)
	}
	return string(p.Value)
}

// View returns b as a string without copying it. The caller has given b up:
// nothing writes it again while the string, or anything cut from it, is
// alive. It is for a decoder that walks such a buffer with Element instead
// of building Packets.
func View(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// String renders a compact diagnostic form of the element tree.
func (p *Packet) String() string {
	if p == nil {
		return "<nil>"
	}
	if p.Constructed {
		return fmt.Sprintf("%s[%d]{%d children}", p.Class, p.Tag, len(p.Children))
	}
	return fmt.Sprintf("%s[%d](%d bytes)", p.Class, p.Tag, len(p.Value))
}

// AppendInt64 appends the minimal two's-complement encoding of v to dst.
func AppendInt64(dst []byte, v int64) []byte {
	n := 1
	for m := v; m > 127 || m < -128; m >>= 8 {
		n++
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(uint(i)*8)))
	}
	return dst
}

// ParseInt64 decodes a two's-complement integer of 1..8 octets.
func ParseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, errors.New("ber: empty integer")
	}
	if len(b) > 8 {
		return 0, errors.New("ber: integer too large")
	}
	v := int64(0)
	if b[0]&0x80 != 0 {
		v = -1 // sign-extend
	}
	for _, c := range b {
		v = v<<8 | int64(c)
	}
	return v, nil
}

// Marshal serializes the element tree into a fresh byte slice.
func Marshal(p *Packet) []byte {
	return appendPacket(nil, p)
}

// Append serializes the element tree onto dst and returns the extended
// slice. Hot encode paths (the LDAP client and server write loops) use it
// with pooled buffers to avoid a fresh allocation per message.
func Append(dst []byte, p *Packet) []byte {
	return appendPacket(dst, p)
}

func appendPacket(dst []byte, p *Packet) []byte {
	dst = appendIdentifier(dst, p)
	if p.Constructed {
		var body []byte
		for _, c := range p.Children {
			body = appendPacket(body, c)
		}
		dst = appendLength(dst, len(body))
		return append(dst, body...)
	}
	dst = appendLength(dst, len(p.Value))
	return append(dst, p.Value...)
}

func appendIdentifier(dst []byte, p *Packet) []byte {
	return appendTag(dst, p.Class, p.Constructed, p.Tag)
}

func appendTag(dst []byte, class Class, constructed bool, tag uint32) []byte {
	first := byte(class) << 6
	if constructed {
		first |= 0x20
	}
	if tag < 0x1f {
		return append(dst, first|byte(tag))
	}
	dst = append(dst, first|0x1f)
	// High-tag-number form: base-128, most significant group first.
	var groups [5]byte
	n := 0
	for t := tag; ; t >>= 7 {
		groups[n] = byte(t & 0x7f)
		n++
		if t < 0x80 {
			break
		}
	}
	for i := n - 1; i > 0; i-- {
		dst = append(dst, groups[i]|0x80)
	}
	return append(dst, groups[0])
}

func appendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	var tmp [8]byte
	k := 0
	for m := n; m > 0; m >>= 8 {
		tmp[k] = byte(m)
		k++
	}
	dst = append(dst, 0x80|byte(k))
	for i := k - 1; i >= 0; i-- {
		dst = append(dst, tmp[i])
	}
	return dst
}

// Decode parses exactly one element from the front of b, returning the
// element and any remaining bytes.
func Decode(b []byte) (*Packet, []byte, error) {
	var d decoder
	return d.decode(b, 0)
}

// DecodeFull parses exactly one element that must consume all of b.
func DecodeFull(b []byte) (*Packet, error) {
	var d decoder
	return d.decodeFull(b)
}

// decoder carries per-message decode state: a chunked arena so one frame's
// worth of Packet nodes costs a handful of allocations instead of one per
// element, and the ownership flag propagated onto every node. Arena chunks
// are never reallocated, so node pointers stay stable.
type decoder struct {
	arena  []Packet
	viewOK bool
	san    packetSan
}

func (d *decoder) node() *Packet {
	if len(d.arena) == 0 {
		d.arena = make([]Packet, 32)
	}
	p := &d.arena[0]
	d.arena = d.arena[1:]
	p.viewOK = d.viewOK
	p.san = d.san
	return p
}

func (d *decoder) decodeFull(b []byte) (*Packet, error) {
	p, rest, err := d.decode(b, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ber: %d trailing bytes after element", len(rest))
	}
	return p, nil
}

func (d *decoder) decode(b []byte, depth int) (*Packet, []byte, error) {
	if depth > MaxDepth {
		return nil, nil, ErrTooDeep
	}
	p := d.node()
	rest, err := parseIdentifier(b, p)
	if err != nil {
		return nil, nil, err
	}
	length, rest, err := parseLength(rest)
	if err != nil {
		return nil, nil, err
	}
	if length > len(rest) {
		return nil, nil, ErrTruncated
	}
	contents, rest := rest[:length], rest[length:]
	if !p.Constructed {
		p.Value = contents
		return p, rest, nil
	}
	for len(contents) > 0 {
		var child *Packet
		child, contents, err = d.decode(contents, depth+1)
		if err != nil {
			return nil, nil, err
		}
		p.Children = append(p.Children, child)
	}
	return p, rest, nil
}

func parseIdentifier(b []byte, p *Packet) ([]byte, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	first := b[0]
	p.Class = Class(first >> 6)
	p.Constructed = first&0x20 != 0
	tag := uint32(first & 0x1f)
	b = b[1:]
	if tag != 0x1f {
		p.Tag = tag
		return b, nil
	}
	// High-tag-number form.
	tag = 0
	for i := 0; ; i++ {
		if len(b) == 0 {
			return nil, ErrTruncated
		}
		if i >= 5 {
			return nil, ErrBadTag
		}
		c := b[0]
		b = b[1:]
		tag = tag<<7 | uint32(c&0x7f)
		if c&0x80 == 0 {
			break
		}
	}
	if tag < 0x1f {
		return nil, ErrBadTag // non-minimal high-tag form
	}
	p.Tag = tag
	return b, nil
}

func parseLength(b []byte) (int, []byte, error) {
	if len(b) == 0 {
		return 0, nil, ErrTruncated
	}
	first := b[0]
	b = b[1:]
	if first < 0x80 {
		return int(first), b, nil
	}
	n := int(first & 0x7f)
	if n == 0 {
		return 0, nil, ErrIndefinite
	}
	if n > 4 {
		return 0, nil, ErrTooLarge
	}
	if len(b) < n {
		return 0, nil, ErrTruncated
	}
	length := 0
	for i := 0; i < n; i++ {
		length = length<<8 | int(b[i])
	}
	if length > MaxElementSize {
		return 0, nil, ErrTooLarge
	}
	return length, b[n:], nil
}

// readFrameHeader reads the identifier and length octets of one element
// into hdr (a small stack buffer) and returns the header bytes and the
// contents length. Reads go through the caller's (typically buffered)
// reader one field at a time — length-prefix framing, no byte-at-a-time
// scan of the body.
func readFrameHeader(r io.Reader, hdr []byte) ([]byte, int, error) {
	hdr = hdr[:0]
	readByte := func() (byte, error) {
		if br, ok := r.(io.ByteReader); ok {
			return br.ReadByte()
		}
		var one [1]byte // escapes into ReadFull: made only off the buffered path
		_, err := io.ReadFull(r, one[:])
		return one[0], err
	}
	first, err := readByte()
	if err != nil {
		return nil, 0, err
	}
	hdr = append(hdr, first)
	// Finish the identifier if it uses the high-tag-number form.
	if first&0x1f == 0x1f {
		for {
			c, err := readByte()
			if err != nil {
				return nil, 0, err
			}
			hdr = append(hdr, c)
			if len(hdr) > 6 {
				return nil, 0, ErrBadTag
			}
			if c&0x80 == 0 {
				break
			}
		}
	}
	lenOctet, err := readByte()
	if err != nil {
		return nil, 0, err
	}
	hdr = append(hdr, lenOctet)
	length := 0
	switch {
	case lenOctet < 0x80:
		length = int(lenOctet)
	case lenOctet == 0x80:
		return nil, 0, ErrIndefinite
	default:
		n := int(lenOctet & 0x7f)
		if n > 4 {
			return nil, 0, ErrTooLarge
		}
		for i := 0; i < n; i++ {
			c, err := readByte()
			if err != nil {
				return nil, 0, err
			}
			hdr = append(hdr, c)
			length = length<<8 | int(c)
		}
	}
	if length > MaxElementSize {
		return nil, 0, ErrTooLarge
	}
	return hdr, length, nil
}

// ReadPacket reads exactly one BER element from r, as required to frame
// LDAP messages on a stream connection. It tolerates long-form lengths but
// rejects indefinite ones. The frame buffer is allocated once at its exact
// size and owned by the returned Packet, so Str may hand out zero-copy
// views into it.
func ReadPacket(r io.Reader) (*Packet, error) {
	var hdrArr [12]byte
	hdr, length, err := readFrameHeader(r, hdrArr[:0])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, len(hdr)+length)
	copy(buf, hdr)
	if _, err := io.ReadFull(r, buf[len(hdr):]); err != nil {
		return nil, err
	}
	return DecodeOwned(buf)
}

// DecodeOwned is DecodeFull for a buffer the caller gives up: b must never
// be written again, and the returned Packet keeps it alive, so Str hands out
// zero-copy views into it instead of copies.
func DecodeOwned(b []byte) (*Packet, error) {
	d := decoder{viewOK: true}
	return d.decodeFull(b)
}

// FrameLen reports the total length (header plus contents) of the element
// whose encoding starts b, once enough of b has arrived to tell: zero means
// the header is still incomplete. It applies the stream-framing checks of
// ReadPacket — a reader that buffers a connection itself frames with it and
// then hands each complete element to Decode*, Element or its own scanner.
func FrameLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	n := 1
	if b[0]&0x1f == 0x1f {
		// High-tag-number form: the identifier runs to the first octet
		// without the continuation bit.
		for {
			if n > 5 {
				return 0, ErrBadTag
			}
			if n == len(b) {
				return 0, nil
			}
			n++
			if b[n-1]&0x80 == 0 {
				break
			}
		}
	}
	if n == len(b) {
		return 0, nil
	}
	first := b[n]
	n++
	if first < 0x80 {
		return n + int(first), nil
	}
	k := int(first & 0x7f)
	if k == 0 {
		return 0, ErrIndefinite
	}
	if k > 4 {
		return 0, ErrTooLarge
	}
	if len(b) < n+k {
		return 0, nil
	}
	length := 0
	for _, c := range b[n : n+k] {
		length = length<<8 | int(c)
	}
	if length > MaxElementSize {
		return 0, ErrTooLarge
	}
	return n + k + length, nil
}

// Element splits the element at the front of b into its identifier octet,
// its contents and the bytes that follow it, without building a Packet: the
// primitive of a scanner that walks a frame in place. Only the one-octet
// (low-tag-number) identifier form is understood; ErrBadTag reports the
// other, which LDAP's own operations never use.
func Element(b []byte) (id byte, contents, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, nil, ErrTruncated
	}
	id = b[0]
	if id&0x1f == 0x1f {
		return 0, nil, nil, ErrBadTag
	}
	length, rest, err := parseLength(b[1:])
	if err != nil {
		return 0, nil, nil, err
	}
	if length > len(rest) {
		return 0, nil, nil, ErrTruncated
	}
	return id, rest[:length], rest[length:], nil
}

// ReadFrame reads exactly one BER element from r, with ReadPacket's framing
// checks, into buf (grown as needed) and returns the frame: buf resliced to
// the element, to be passed back as buf on the next call. The frame aliases
// buf, so the caller must be completely done with it — having copied out
// whatever it keeps — before calling again. A server read loop frames a long
// request stream this way with no per-message buffer, and hands each frame
// to a scanner or a decoder that copies what it keeps.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	frame, _, err := readFrame(r, buf)
	return frame, err
}

// readFrame is ReadFrame, also returning the reuse generation the frame was
// read in (see sanRecycle) for packets decoded from it.
func readFrame(r io.Reader, buf []byte) ([]byte, packetSan, error) {
	var hdrArr [12]byte
	hdr, length, err := readFrameHeader(r, hdrArr[:0])
	if err != nil {
		return buf, packetSan{}, err
	}
	total := len(hdr) + length
	if cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	san := sanRecycle(buf)
	copy(buf, hdr)
	_, err = io.ReadFull(r, buf[len(hdr):])
	return buf, san, err
}

// ReadPacketBuf is ReadFrame plus a decode of the frame: the returned Packet
// and everything reachable from it alias buf, and the possibly-grown buffer
// is returned for the next call. The caller must be completely done with the
// previous Packet — including copying out any []byte or Str values it
// intends to keep — before calling again.
func ReadPacketBuf(r io.Reader, buf []byte) (*Packet, []byte, error) {
	frame, san, err := readFrame(r, buf)
	if err != nil {
		return nil, frame, err
	}
	d := decoder{san: san}
	p, err := d.decodeFull(frame)
	return p, frame, err
}
