//go:build mdsdebug

package ber

// Use-after-recycle sanitizer, debug flavor. ReadFrame hands out frames, and
// ReadPacketBuf Packets, that alias a caller-reused frame buffer; the
// contract is that the previous frame (and every Packet, []byte or view
// derived from it) is dead the moment the next frame is read into the same
// buffer. Violations are normally silent data corruption — the old values
// suddenly contain the new message's bytes. Under -tags mdsdebug each
// recycle
//
//   - retires the previous frame's generation, so accessors on a stale
//     Packet panic deterministically at the use site, and
//   - scribbles 0xDB over the buffer before the new frame lands, so even
//     raw slice aliasing that bypasses the accessors shows up as garbage
//     instead of plausible stale data.
//
// A second check rides along: Builder.Bytes panics while an element is still
// open, so an encoder path that returns or falls off with a Begin unmatched
// by End fails where it hands out the bytes, not in some peer's decoder.
//
// The release twin (sanitize_release.go) compiles all of this to nothing:
// packetSan is zero-sized and the hooks are empty leaf calls.

import (
	"sync"
	"sync/atomic"
)

// frameState is one reuse generation of one frame buffer.
type frameState struct {
	retired atomic.Bool
}

// packetSan rides on every decoded Packet and points at the generation of
// the frame it aliases; nil for packets that own their memory (ReadPacket,
// Decode into fresh buffers, builder-made packets).
type packetSan struct {
	f *frameState
}

// frameReg maps a frame buffer's backing array (by address of its first
// byte) to its live generation. Buffers are long-lived per connection, so
// the registry stays small; debug builds don't reclaim entries.
var frameReg sync.Map // *byte → *frameState

// sanRecycle marks the previous generation of buf dead, poisons the bytes,
// and arms a new generation. Called by ReadFrame after sizing the buffer
// and before framing the new element into it.
func sanRecycle(buf []byte) packetSan {
	if cap(buf) == 0 {
		return packetSan{}
	}
	full := buf[:cap(buf)]
	key := &full[0]
	if old, ok := frameReg.Load(key); ok {
		old.(*frameState).retired.Store(true)
		for i := range full {
			full[i] = 0xDB
		}
	}
	f := &frameState{}
	frameReg.Store(key, f)
	return packetSan{f: f}
}

// check panics if the packet's frame has been recycled since it was decoded.
func (s packetSan) check() {
	if s.f != nil && s.f.retired.Load() {
		panic("ber: use of Packet after its frame buffer was recycled (mdsdebug); clone values before the next ReadFrame or ReadPacketBuf")
	}
}

// checkClosed panics if b has a constructed element open: its length octet
// is still a placeholder.
func (b *Builder) checkClosed() {
	if len(b.stack) != 0 {
		panic("ber: Builder.Bytes with an element still open (mdsdebug); every Begin needs its End")
	}
}
