//go:build mdsdebug

package ldap

import (
	"sync/atomic"
	"time"
)

// Snapshot-seal sanitizer, debug flavor. The store's copy-on-write
// contract says entries handed out by Find, AppendCompiled and All are
// shared immutable snapshots; mutating one corrupts every
// concurrent reader and the equality indexes. Under -tags mdsdebug each
// snapshot is sealed (a checksum of its contents taken) at the moment it
// is installed in the tree, and
//
//   - the mutating Entry methods (Add, Set, Delete, SortAttrs) panic
//     outright when called on a sealed entry — the earliest, most precise
//     catch;
//   - every hand-out (Find, AppendCompiled, All — one code path)
//     re-verifies the checksum, catching raw field/slice writes that
//     bypass the methods.
//
// Clone and Select build fresh keyed literals, so their results carry a
// zero (unsealed) seal and stay freely mutable: that is the laundering
// contract, and this seal is what holds it (DESIGN.md "Invariant catalog").
//
// A stored decoded entry's checksum also covers the wire form the store
// recorded for it (Entry.publish), which every send copies as it is.
//
// A wire-backed entry (every result of Client.Search, SearchWith and
// SearchFunc) is sealed at birth, and its checksum is taken over the raw
// frame bytes (and the kept name bytes, when it has them) rather than
// decoded attributes: a collected result's frames alias a client read
// chunk, and the one way that goes wrong — the chunk
// being reused while an entry still points into it — is made loud by
// poisonChunk scribbling over every recycled chunk, so the next materialise,
// re-emit or cache fill of such an entry fails its seal.
// The release twin (seal_release.go) compiles all of this to nothing.

// entrySan is the per-entry seal: the checksum taken at sealing, forced
// nonzero; zero means unsealed (mutable). It is atomic because stores that
// adopt one fresh entry at once each seal it, with the same sum.
type entrySan struct {
	sum atomic.Uint64
}

// checksum is FNV-1a over the entry's logical contents.
func (e *Entry) checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime // terminator so "ab","c" ≠ "a","bc"
	}
	var key [128]byte // the name's key, built without a string of its own
	for _, c := range e.DN.AppendNormalized(key[:0]) {
		h = (h ^ uint64(c)) * prime
	}
	h = (h ^ 0xff) * prime
	if e.name != nil {
		// A kept name aliases the read chunk like raw does.
		for _, c := range e.name {
			h = (h ^ uint64(c)) * prime
		}
		h = (h ^ 0xff) * prime
	}
	if form := e.form.Load(); form != nil {
		// A stored snapshot's recorded wire form is what a send copies.
		for _, c := range *form {
			h = (h ^ uint64(c)) * prime
		}
		h = (h ^ 0xff) * prime
	}
	if e.raw != nil {
		for _, c := range e.raw {
			h = (h ^ uint64(c)) * prime
		}
		return max(h, 1)
	}
	for _, a := range e.Attrs {
		mix(a.Name)
		for _, v := range a.Values {
			mix(v)
		}
	}
	return max(h, 1) // zero means unsealed
}

// seal freezes the entry before publication.
func (e *Entry) seal() {
	e.san.sum.Store(e.checksum())
}

// sealed reports whether the entry has been sealed.
func (e *Entry) sealed() bool { return e.san.sum.Load() != 0 }

// sealOrVerify seals an entry on its first publication and re-verifies one
// that arrives already sealed — an adopted entry another store still serves
// (Store.Adopt), which concurrent readers may be checking.
func (e *Entry) sealOrVerify() {
	if e.sealed() {
		e.verifySeal()
		return
	}
	e.seal()
}

// verifySeal panics if a sealed entry's contents changed after publication.
func (e *Entry) verifySeal() {
	if sum := e.san.sum.Load(); sum != 0 && sum != e.checksum() {
		panic("ldap: snapshot mutated after publication (mdsdebug); Clone or Select before modifying entries from Find or Client.Search* — or a wire-backed entry outlived its read chunk: " + e.DN.String())
	}
}

// checkMutable panics when a mutating method is invoked on a sealed entry.
func (e *Entry) checkMutable() {
	if e.sealed() {
		panic("ldap: mutating method called on a sealed snapshot (mdsdebug); Clone or Select a private copy first: " + e.DN.String())
	}
}

// verifyEntries re-verifies a result set on its way out of the store.
func verifyEntries(es []*Entry) []*Entry {
	for _, e := range es {
		e.verifySeal()
	}
	return es
}

// SealSnapshots extends the store's seal contract to result sets that
// become shared snapshots outside the store — e.g. the qcache query-result
// cache, which hands the same entries to every hit. Entries already sealed
// (store hand-outs flowing through unchanged) are re-verified instead, so
// a mutation between store and cache is still caught; unsealed entries
// (decoded from the wire, grafted, then published) are sealed here. A
// no-op outside -tags mdsdebug.
func SealSnapshots(es []*Entry) {
	for _, e := range es {
		e.sealOrVerify()
	}
}

// poisonChunk scribbles over a client read chunk that is about to be reused,
// so a wire-backed entry that wrongly still aliases it fails its seal
// instead of relaying another message's bytes.
func poisonChunk(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// writerSan marks a served search's writer retired once its op has ended:
// the connection reuses the writer for a later search, so a send on a
// retired one (a goroutine the handler left running) would land in another
// operation's reply. Dispatch revives the writer when it hands it out again.
type writerSan struct {
	retired atomic.Bool
}

func (s *writerSan) retire() { s.retired.Store(true) }

func (s *writerSan) check() {
	if s.retired.Load() {
		panic("ldap: search writer used after its handler returned (mdsdebug); a served writer is valid only during Handler.Search")
	}
}

// retireRequest poisons a Request whose op has ended, as poisonChunk does a
// recycled read chunk: a reader that outlived the handler finds a Ctx that
// panics and a trace identity no span belongs to, instead of the fields of
// the operation that reuses it.
func retireRequest(r *Request) {
	*r = Request{Ctx: retiredContext{}, Controls: retiredControls, TraceID: "\xdb\xdb\xdb\xdb", TraceDepth: -1}
}

var retiredControls = []Control{{OID: "retired"}}

// retiredContext is a retired Request's Ctx: every use panics.
type retiredContext struct{}

func (retiredContext) Deadline() (time.Time, bool) { panic(retiredRequest) }
func (retiredContext) Done() <-chan struct{}       { panic(retiredRequest) }
func (retiredContext) Err() error                  { panic(retiredRequest) }
func (retiredContext) Value(any) any               { panic(retiredRequest) }

const retiredRequest = "ldap: Request used after its handler returned (mdsdebug); a served Request is valid only during the Handler call"
