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
	store := newStoreHandler()
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
	store := newStoreHandler()
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

// TestHealthCheckTimeoutBoundsWholeProbe: against a server that accepts the
// connection and never answers, the probe fails once its Timeout has
// passed. (The dial's share of the bound, net.DialTimeout, needs an address
// that never answers a connect, which a loopback test cannot make.)
func TestHealthCheckTimeoutBoundsWholeProbe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never read
		}
	}()
	start := time.Now()
	d, err := (HealthCheck{Addr: l.Addr().String(), Timeout: 100 * time.Millisecond}).Probe()
	if err == nil {
		t.Fatal("probe against a server that never answers passed")
	}
	if took := time.Since(start); took > 5*time.Second || d < 100*time.Millisecond {
		t.Fatalf("probe failed after %v (reported %v), want about its 100ms Timeout: %v", took, d, err)
	}
}
