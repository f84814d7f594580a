package ldap

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestHealthCheckProbe: against a live server the probe passes; after Close
// it fails at dial; against a server shedding binds it fails at bind.
func TestHealthCheckProbe(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	addr := l.Addr().String()

	if d, err := (HealthCheck{Addr: addr}).Probe(); err != nil {
		t.Fatalf("probe against live server: %v (after %v)", err, d)
	}

	srv.Close()
	if _, err := (HealthCheck{Addr: addr, Timeout: 2 * time.Second}).Probe(); err == nil {
		t.Fatal("probe against closed server passed")
	} else if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("closed-server probe error = %v, want dial failure", err)
	}
}

// TestHealthCheckFailsWhenThrottled: a server that sheds the probe's bind
// reports unhealthy — overload is a health signal, not a silent state.
func TestHealthCheckFailsWhenThrottled(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	// Rate so low the very first bind finds an empty bucket after the
	// warmup probe drains the single-token burst.
	srv.Overload = OverloadConfig{ClientRate: 0.0001, ClientBurst: 1}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	// First probe spends the burst token on its bind...
	if _, err := (HealthCheck{Addr: addr}).Probe(); err == nil {
		t.Fatal("first probe should fail: bind consumed the only token, the rootdse search is throttled")
	}
	// ...and every later probe fails at bind.
	if _, err := (HealthCheck{Addr: addr}).Probe(); err == nil {
		t.Fatal("throttled probe passed")
	} else if !IsCode(err, ResultBusy) {
		t.Fatalf("throttled probe error = %v, want busy", err)
	}
}

func TestParseProbeMode(t *testing.T) {
	ok := map[string]ProbeMode{
		"":                ProbeAnonymous,
		"anonymous":       ProbeAnonymous,
		"Anon":            ProbeAnonymous,
		" scoped-search ": ProbeScopedSearch,
		"search":          ProbeScopedSearch,
		"SCOPED":          ProbeScopedSearch,
	}
	for in, want := range ok {
		if got, err := ParseProbeMode(in); err != nil || got != want {
			t.Errorf("ParseProbeMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, unknown := range []string{"deep", "simple-bind"} {
		if _, err := ParseProbeMode(unknown); err == nil {
			t.Fatalf("unknown probe mode %q parsed", unknown)
		}
	}
	// Every real mode's String round-trips through the parser, so the flag
	// vocabulary and the health-check names stay in sync.
	for _, m := range []ProbeMode{ProbeAnonymous, ProbeScopedSearch} {
		if got, err := ParseProbeMode(m.String()); err != nil || got != m {
			t.Errorf("round trip %v: got %v, %v", m, got, err)
		}
	}
}

// TestHealthCheckProbeModes: the scoped-search mode against a store-backed
// server passes when the MinEntries floor is met, fails when it is not, and
// fails on an unparsable filter.
func TestHealthCheckProbeModes(t *testing.T) {
	store := NewStore()
	base := MustParseDN("o=grid")
	if err := store.Put(NewEntry(base).
		Add("objectclass", "organization").Add("o", "grid")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(NewEntry(base.ChildAVA("hn", "hostA")).
		Add("objectclass", "computer").Add("hn", "hostA")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	scoped := HealthCheck{Addr: addr, Mode: ProbeScopedSearch,
		Base: "o=grid", Scope: ScopeWholeSubtree, MinEntries: 2}
	if d, err := scoped.Probe(); err != nil {
		t.Fatalf("scoped-search probe: %v (after %v)", err, d)
	}

	scoped.MinEntries = 3
	if _, err := scoped.Probe(); err == nil {
		t.Fatal("scoped-search probe passed with only 2 of 3 required entries")
	} else if !strings.Contains(err.Error(), "entries") {
		t.Fatalf("under-floor probe error = %v, want entry-count failure", err)
	}

	scoped.MinEntries = 0
	scoped.Filter = "(((broken"
	if _, err := scoped.Probe(); err == nil {
		t.Fatal("scoped-search probe passed with unparsable filter")
	}
}
