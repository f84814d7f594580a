package ber

// This file is the encode fast path: a Builder that emits BER elements
// directly into a byte slice, without constructing the intermediate Packet
// tree that Marshal/Append serialize. Output is byte-for-byte identical to
// the tree encoder (minimal definite lengths, identical tag forms) — the
// tree path is kept as the reference implementation and the differential
// test in internal/ldap pins the equivalence.

// Builder appends BER elements to a buffer. Constructed elements are opened
// with Begin and closed with End; because BER uses length-prefixed framing
// and the length isn't known until the body is built, Begin reserves a
// single length octet and End back-patches it, shifting the body right only
// in the rare case a long-form length is needed (body ≥ 128 bytes).
//
// The zero value is ready to use; Reset rearms it around a caller-supplied
// (typically pooled) buffer.
type Builder struct {
	buf []byte
	// stack holds the offsets of the reserved length octet for each open
	// constructed element, innermost last.
	stack []int
	arr   [16]int
}

// Reset discards state and arms the builder to append onto buf (which may
// be nil or a pooled slice with spare capacity).
func (b *Builder) Reset(buf []byte) {
	b.buf = buf
	b.stack = b.arr[:0]
}

// Bytes returns the encoded buffer. All Begin calls must have been matched
// by End, otherwise lengths are still placeholders; under -tags mdsdebug an
// element still open panics here.
func (b *Builder) Bytes() []byte {
	b.checkClosed()
	return b.buf
}

// Len returns the current encoded size.
func (b *Builder) Len() int { return len(b.buf) }

// Begin opens a constructed element with the given class and tag.
func (b *Builder) Begin(class Class, tag uint32) {
	b.buf = appendTag(b.buf, class, true, tag)
	b.stack = append(b.stack, len(b.buf))
	b.buf = append(b.buf, 0) // length placeholder, patched by End
}

// End closes the innermost open constructed element, back-patching its
// length octet(s).
func (b *Builder) End() {
	pos := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	n := len(b.buf) - pos - 1
	if n < 0x80 {
		b.buf[pos] = byte(n)
		return
	}
	// Long form: the length needs 1+k octets, so shift the body right by k
	// and write 0x80|k followed by the big-endian length.
	k := 0
	for m := n; m > 0; m >>= 8 {
		k++
	}
	// Grow from a stack array: append of a make is optimised into a plain
	// grow only in builds without -race instrumentation.
	var room [8]byte
	b.buf = append(b.buf, room[:k]...)
	copy(b.buf[pos+1+k:], b.buf[pos+1:len(b.buf)-k])
	b.buf[pos] = 0x80 | byte(k)
	for i := 0; i < k; i++ {
		b.buf[pos+1+i] = byte(n >> (uint(k-1-i) * 8))
	}
}

// BeginPrimitive opens a primitive element whose contents are appended
// incrementally with RawString/RawBytes; close with End. It uses the same
// length back-patching as Begin, letting callers emit composite string
// values (e.g. a rendered DN) without first assembling them elsewhere.
func (b *Builder) BeginPrimitive(class Class, tag uint32) {
	b.buf = appendTag(b.buf, class, false, tag)
	b.stack = append(b.stack, len(b.buf))
	b.buf = append(b.buf, 0) // length placeholder, patched by End
}

// RawString appends raw contents bytes inside the innermost open element.
func (b *Builder) RawString(s string) { b.buf = append(b.buf, s...) }

// RawBytes appends raw contents bytes inside the innermost open element.
func (b *Builder) RawBytes(v []byte) { b.buf = append(b.buf, v...) }

// Primitive emits a primitive element with raw contents.
func (b *Builder) Primitive(class Class, tag uint32, contents []byte) {
	b.buf = appendTag(b.buf, class, false, tag)
	b.buf = appendLength(b.buf, len(contents))
	b.buf = append(b.buf, contents...)
}

// PrimitiveString emits a primitive element with string contents.
func (b *Builder) PrimitiveString(class Class, tag uint32, s string) {
	b.buf = appendTag(b.buf, class, false, tag)
	b.buf = appendLength(b.buf, len(s))
	b.buf = append(b.buf, s...)
}

// PrimitiveInt emits a primitive element whose contents are the minimal
// two's-complement encoding of v (IMPLICIT INTEGER fields such as
// AbandonRequest's message ID).
func (b *Builder) PrimitiveInt(class Class, tag uint32, v int64) {
	n := 1
	for m := v; m > 127 || m < -128; m >>= 8 {
		n++
	}
	b.buf = appendTag(b.buf, class, false, tag)
	b.buf = append(b.buf, byte(n))
	for i := n - 1; i >= 0; i-- {
		b.buf = append(b.buf, byte(v>>(uint(i)*8)))
	}
}

// OctetString emits a universal OCTET STRING.
func (b *Builder) OctetString(s string) {
	b.PrimitiveString(ClassUniversal, TagOctetString, s)
}

// OctetStringBytes emits a universal OCTET STRING from a byte slice.
func (b *Builder) OctetStringBytes(v []byte) {
	b.Primitive(ClassUniversal, TagOctetString, v)
}

// ContextString emits a context-tagged primitive holding s (the LDAP idiom
// for IMPLICIT OCTET STRING fields).
func (b *Builder) ContextString(tag uint32, s string) {
	b.PrimitiveString(ClassContext, tag, s)
}

// Int emits a universal INTEGER in minimal two's-complement form.
func (b *Builder) Int(v int64) { b.PrimitiveInt(ClassUniversal, TagInteger, v) }

// Enum emits a universal ENUMERATED.
func (b *Builder) Enum(v int64) { b.PrimitiveInt(ClassUniversal, TagEnumerated, v) }

// Bool emits a universal BOOLEAN.
func (b *Builder) Bool(v bool) {
	c := byte(0x00)
	if v {
		c = 0xff
	}
	b.buf = appendTag(b.buf, ClassUniversal, false, TagBoolean)
	b.buf = append(b.buf, 1, c)
}

// Null emits a universal NULL.
func (b *Builder) Null() {
	b.buf = appendTag(b.buf, ClassUniversal, false, TagNull)
	b.buf = append(b.buf, 0)
}

// Packet emits a pre-built element tree, bridging code that still
// constructs Packets (e.g. opaque control values) into a Builder stream.
func (b *Builder) Packet(p *Packet) {
	b.buf = appendPacket(b.buf, p)
}
