//go:build !mdsdebug

package ldap

// Release twin of the snapshot-seal sanitizer (seal_mdsdebug.go):
// zero-sized state and empty hooks that inline to nothing.

type entrySan struct{}

func (e *Entry) seal() {}

func (e *Entry) sealed() bool { return false }

func (e *Entry) sealOrVerify() {}

func (e *Entry) verifySeal() {}

func (e *Entry) checkMutable() {}

func verifyEntries(es []*Entry) []*Entry { return es }

// SealSnapshots is the release no-op twin of the mdsdebug seal extension
// for caches that publish shared snapshots (see seal_mdsdebug.go).
func SealSnapshots(es []*Entry) {}

func poisonChunk([]byte) {}

// writerSan is the release twin of the retired-writer check.
type writerSan struct{}

func (writerSan) retire() {}

func (writerSan) check() {}

// retireRequest drops what a retired Request refers to.
func retireRequest(r *Request) { *r = Request{} }
