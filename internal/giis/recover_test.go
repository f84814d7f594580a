package giis

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mds2/internal/grrp"
	"mds2/internal/ldap"
	"mds2/internal/obs"
	"mds2/internal/persist"
	"mds2/internal/softstate"
)

// TestRestartFromWAL is the correctness half of crash recovery. A GIIS wired
// the way cmd/giis -data-dir wires it (Open → Recover → Attach on the
// receiver's registry) ingests 200 registrations, draws a durability line
// and crashes. Reopened over the same directory, it lists the same children,
// each marked Recovered, and its name index answers with all of them before
// any provider has refreshed — and the log, attached after the recovery,
// has not been fed the recovered registrations back.
func TestRestartFromWAL(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	clock := softstate.NewFakeClock()
	var walRecords *obs.Counter // this boot's persist_wal_records_total
	boot := func() (*Server, *persist.Manager) {
		t.Helper()
		o := obs.NewRegistry()
		walRecords = o.Counter("persist_wal_records_total")
		s := New(Config{Name: "giis.recover", Suffix: ldap.MustParseDN("o=grid"),
			SelfURL: ldap.MustParseURL("sim://giis-node:389"), Clock: clock, Strategy: preset("referral", StrategyConfig{})})
		pm, err := persist.Open(persist.Options{Dir: dir, Clock: clock, Sync: persist.SyncAlways,
			RecoveryGrace: 2 * time.Minute, Obs: o,
			Codec: persist.PayloadCodec{Encode: grrp.EncodePayload, Decode: grrp.DecodePayload}})
		if err != nil {
			t.Fatal(err)
		}
		reg := s.Receiver().Registry
		if pm.HasState() {
			if _, err := pm.Recover(nil, reg); err != nil {
				t.Fatal(err)
			}
		}
		if err := pm.Attach(nil, reg); err != nil {
			t.Fatal(err)
		}
		return s, pm
	}
	// identity renders a child set without its Recovered marks.
	identity := func(children []Child) []string {
		out := make([]string, len(children))
		for i, c := range children {
			out[i] = fmt.Sprintf("%s %s %s %s %s until %v", c.URL, c.Suffix, c.ViewSuffix, c.MDSType, c.VO, c.ExpiresAt)
		}
		return out
	}

	s, pm := boot()
	now := clock.Now()
	for i := 0; i < n; i++ {
		if !s.Ingest(&grrp.Message{Type: grrp.TypeRegister, MDSType: "gris", VO: "grid",
			ServiceURL: fmt.Sprintf("ldap://provider-%03d.invalid:2135", i),
			SuffixDN:   fmt.Sprintf("hn=p%03d, o=grid", i),
			IssuedAt:   now, ValidUntil: now.Add(2 * time.Minute)}) {
			t.Fatalf("registration %d refused", i)
		}
	}
	want := identity(s.Children())
	if len(want) != n {
		t.Fatalf("%d children before the crash, want %d", len(want), n)
	}
	if err := pm.Barrier(); err != nil {
		t.Fatal(err)
	}
	pm.Crash()
	s.Close()

	s, pm = boot()
	defer pm.Close()
	defer s.Close()
	children := s.Children()
	got := identity(children)
	if len(got) != n {
		t.Fatalf("%d children after restart, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("child %d after restart:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	for _, c := range children {
		if !c.Recovered {
			t.Fatalf("child %s not marked Recovered", c.URL)
		}
	}
	w := &sink{}
	res := s.Search(&ldap.Request{Ctx: context.Background()}, &ldap.SearchRequest{BaseDN: "o=grid",
		Scope: ldap.ScopeSingleLevel, Filter: ldap.MustParseFilter("(objectclass=mdsservice)")}, w)
	if res.Code != ldap.ResultSuccess || len(w.entries) != n+1 {
		t.Fatalf("name index after restart: %v, %d entries, want %d", res.Code, len(w.entries), n+1)
	}
	recovered := 0
	for _, e := range w.entries {
		if e.First("recovered") == "TRUE" {
			recovered++
		}
	}
	if recovered != n {
		t.Fatalf("%d index entries marked recovered, want %d", recovered, n)
	}
	if got := walRecords.Value(); got != 0 {
		t.Fatalf("Recover → Attach wrote %d WAL records before any refresh, want 0", got)
	}
	s.Ingest(&grrp.Message{Type: grrp.TypeRegister, MDSType: "gris", VO: "grid",
		ServiceURL: "ldap://provider-000.invalid:2135", SuffixDN: "hn=p000, o=grid",
		IssuedAt: clock.Now(), ValidUntil: clock.Now().Add(2 * time.Minute)})
	if got := walRecords.Value(); got != 1 {
		t.Fatalf("first refresh after restart wrote %d WAL records, want 1", got)
	}
}
