//go:build mdsdebug

package ber

import (
	"bytes"
	"testing"
)

// Two OCTET STRING elements back to back: "foo", then "x". The second is
// shorter so part of the first frame survives only as poison.
var recycleStream = []byte{0x04, 3, 'f', 'o', 'o', 0x04, 1, 'x'}

func TestSanitizerCatchesUseAfterRecycle(t *testing.T) {
	r := bytes.NewReader(recycleStream)
	p1, buf, err := ReadPacketBuf(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Str(); got != "foo" {
		t.Fatalf("first frame: got %q", got)
	}

	// Recycle the frame: p1 is now dead.
	stale := p1.Value
	if _, _, err := ReadPacketBuf(r, buf); err != nil {
		t.Fatal(err)
	}

	// Raw aliasing past the accessors sees the 0xDB scribble, not stale
	// plausible data (the second frame occupies only the first 3 bytes).
	if stale[1] != 0xDB || stale[2] != 0xDB {
		t.Fatalf("expected poisoned tail, got % x", stale)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Str on a recycled packet did not panic")
		}
	}()
	_ = p1.Str()
}

func TestSanitizerAllowsLivePackets(t *testing.T) {
	// Distinct buffers never interfere, and the current generation of a
	// reused buffer stays valid until the next read.
	r := bytes.NewReader(recycleStream)
	p1, buf, err := ReadPacketBuf(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p1.Str(); got != "foo" {
		t.Fatalf("got %q", got)
	}
	p2, _, err := ReadPacketBuf(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Str(); got != "x" {
		t.Fatalf("got %q", got)
	}

	// ReadPacket owns its buffer outright; it is never recycled.
	p3, err := ReadPacket(bytes.NewReader(recycleStream[:5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPacketBuf(bytes.NewReader(recycleStream), nil); err != nil {
		t.Fatal(err)
	}
	if got := p3.Str(); got != "foo" {
		t.Fatalf("got %q", got)
	}
}

func TestSanitizerCatchesOpenBuilderElement(t *testing.T) {
	var b Builder
	b.Begin(ClassUniversal, TagSequence)
	b.Int(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes with an open SEQUENCE did not panic")
			}
		}()
		_ = b.Bytes()
	}()
	b.End()
	if got := b.Bytes(); !bytes.Equal(got, []byte{0x30, 3, 0x02, 1, 1}) {
		t.Fatalf("closed SEQUENCE: got % x", got)
	}
}
