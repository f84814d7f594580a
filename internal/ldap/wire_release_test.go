//go:build !mdsdebug

package ldap

import "testing"

// TestWireEntryMutatorsDetach: a mutating method on a wire-backed entry its
// caller owns works on a decoded private copy, like on any other entry, and
// leaves an entry sharing the frame alone. (Under mdsdebug a wire-backed
// entry is sealed at birth and the same calls panic — see
// TestSealCoversWireEntries.)
func TestWireEntryMutatorsDetach(t *testing.T) {
	var w wireEntries
	_, e, _, _ := scanFrame(&w, entryFrame(3, sevenAttrEntry(5)))
	shared := e.WithDN(MustParseDN("hn=h5, o=elsewhere"))
	e.Add("rack", "r99").Delete("load5")
	if e.raw != nil || !e.HasValue("rack", "r99") || e.Has("load5") || len(e.Attributes()) != 6 {
		t.Fatalf("after Add+Delete: %s", e)
	}
	if shared.raw == nil || shared.HasValue("rack", "r99") || !shared.Has("load5") {
		t.Fatalf("the entry sharing the frame changed too: %s", shared)
	}
}
