//go:build !mdsdebug

package ber

// Release twin of the use-after-recycle sanitizer (sanitize_mdsdebug.go):
// zero-sized state, empty hooks, no registry. Everything here inlines to
// nothing, keeping the hot decode path untouched.

type packetSan struct{}

func sanRecycle([]byte) packetSan { return packetSan{} }

func (packetSan) check() {}

func (*Builder) checkClosed() {}
