package persist

import (
	"testing"

	"mds2/internal/ldap"
)

// FuzzWALDecode throws arbitrary bytes at the record scanner and every
// payload decoder. The contract under fire: torn or corrupt input truncates
// (scan stops at the damage, decoders return errCorrupt) — never panics,
// never over-allocates off a corrupt count prefix.
func FuzzWALDecode(f *testing.F) {
	// Seed with well-formed frames so mutation explores near-valid space.
	dn, _ := ldap.ParseDN("hn=h1, ou=res, o=grid")
	e := ldap.NewEntry(dn)
	e.Add("objectclass", "computer")
	e.Add("load5", "0.25")
	var valid []byte
	valid = appendRecord(valid, recRound, 1, 991234, encodeRound(nil, "dynamic", []*ldap.Entry{e, e}))
	valid = appendRecord(valid, recRound, 2, 991235, encodeRound(nil, "static", nil))
	valid = appendRecord(valid, recRefresh, 3, 991236, encodeRegItems(nil, []regItem{{
		key: "ldap://p1", expiresAt: 1e9, joinedAt: 2e9, lastRefresh: 3e9,
		refreshes: 7, payload: []byte("x"),
	}}))
	valid = appendRecord(valid, recRegRemove, 4, 991237, encodeKeys(nil, []string{"ldap://p1"}))
	valid = appendRecord(valid, recSnapEnd, 5, 991238, encodeSnapEnd(nil, 3, 2))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                       // torn tail
	f.Add([]byte{})                                   //
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		off, err := scanRecords(data, func(rec record) error {
			// Whatever frames survive the CRC, the payload decoders must
			// fail gracefully, not panic.
			switch rec.typ {
			case recRound:
				_, _, _ = decodeRound(rec.payload)
			case recRefresh:
				_, _ = decodeRegItems(rec.payload)
			case recRegRemove, recRegExpire:
				_, _ = decodeKeys(rec.payload)
			case recSnapEnd:
				_, _, _ = decodeSnapEnd(rec.payload)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan callback error: %v", err)
		}
		if off < 0 || off > len(data) {
			t.Fatalf("scan offset %d out of range [0,%d]", off, len(data))
		}
	})
}
