// End-to-end test of the command-line tools: real gris and giis processes
// on loopback TCP, registration carried as LDAP adds, queried by
// gridsearch — the deployment story of README.md, verified.
package mds2_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools compiles the CLI binaries once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"gris", "giis", "gridsearch", "gridsim", "gridproxy"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, b)
		}
	}
	return dir
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func startTool(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

func waitPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nothing listening at %s", addr)
}

func TestCLIDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	giisPort := freePort(t)
	grisPort := freePort(t)
	giisAddr := fmt.Sprintf("127.0.0.1:%d", giisPort)
	grisAddr := fmt.Sprintf("127.0.0.1:%d", grisPort)

	startTool(t, filepath.Join(bins, "giis"),
		"-name", "giis.test", "-suffix", "vo=clitest",
		"-listen", giisAddr, "-strategy", "chain", "-vo", "clitest")
	waitPort(t, giisAddr)

	startTool(t, filepath.Join(bins, "gris"),
		"-host", "clihost", "-org", "cliorg",
		"-listen", grisAddr, "-register", giisAddr,
		"-vo", "clitest", "-interval", "200ms", "-ttl", "5s", "-cpus", "16")
	waitPort(t, grisAddr)

	// Direct provider query.
	query := func(server, base, filter string) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			out, err := exec.Command(filepath.Join(bins, "gridsearch"),
				"-server", server, "-base", base, filter).CombinedOutput()
			if err == nil && strings.Contains(string(out), "dn:") {
				return string(out)
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %s at %s: %v\n%s", filter, server, err, out)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	direct := query(grisAddr, "hn=clihost, o=cliorg", "(objectclass=computer)")
	if !strings.Contains(direct, "cpucount: 16") {
		t.Fatalf("direct query output:\n%s", direct)
	}
	// Through the directory: registration must have propagated, DNs appear
	// in the VO view namespace.
	viaDir := query(giisAddr, "vo=clitest", "(objectclass=computer)")
	if !strings.Contains(viaDir, "hn=clihost, o=cliorg, vo=clitest") {
		t.Fatalf("directory query output:\n%s", viaDir)
	}
	// The name index lists the provider.
	idx := query(giisAddr, "vo=clitest", "(objectclass=mdsservice)")
	if !strings.Contains(idx, "mdstype: gris") {
		t.Fatalf("name index output:\n%s", idx)
	}
}

// TestCLISingleSignOn drives the full GSI workflow through the tools:
// gridproxy creates a CA, issues identities, delegates a proxy; gris runs
// with GSI enabled; gridsearch authenticates with the proxy.
func TestCLISingleSignOn(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	gp := filepath.Join(bins, "gridproxy")
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(gp, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gridproxy %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	caKey := filepath.Join(dir, "ca.key")
	anchor := filepath.Join(dir, "ca.anchor")
	run("init-ca", "-name", "o=CLI CA", "-ca", caKey, "-anchor", anchor)
	serverKey := filepath.Join(dir, "server.key")
	run("issue", "-ca", caKey, "-subject", "cn=gris.clihost", "-out", serverKey)
	userKey := filepath.Join(dir, "user.key")
	run("issue", "-ca", caKey, "-subject", "cn=alice", "-out", userKey)
	proxyKey := filepath.Join(dir, "user.proxy")
	run("proxy", "-in", userKey, "-out", proxyKey, "-lifetime", "1h")
	if out := run("show", "-in", proxyKey); !strings.Contains(out, "proxy") ||
		!strings.Contains(out, `subject="cn=alice/proxy"`) {
		t.Fatalf("show output:\n%s", out)
	}
	if out := run("verify", "-in", proxyKey, "-anchor", anchor); !strings.Contains(out, "valid") {
		t.Fatalf("verify output:\n%s", out)
	}

	grisAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	startTool(t, filepath.Join(bins, "gris"),
		"-host", "clihost", "-org", "cli", "-listen", grisAddr,
		"-keys", serverKey, "-anchor", anchor)
	waitPort(t, grisAddr)

	// Authenticated search through gridsearch with the delegated proxy.
	out, err := exec.Command(filepath.Join(bins, "gridsearch"),
		"-server", grisAddr, "-base", "hn=clihost, o=cli",
		"-proxy", proxyKey, "-anchor", anchor,
		"(objectclass=computer)").CombinedOutput()
	if err != nil {
		t.Fatalf("authenticated gridsearch: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, `server is "cn=gris.clihost"`) {
		t.Fatalf("missing mutual-auth confirmation:\n%s", s)
	}
	if !strings.Contains(s, "hn: clihost") {
		t.Fatalf("missing search results:\n%s", s)
	}
}

// TestCLISignedParentRegistration stands a child giis with keys under a
// parent that refuses unsigned registrations: the child's -parent stream
// must be signed with its -keys for the parent to list it.
func TestCLISignedParentRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dir := t.TempDir()
	gp := filepath.Join(bins, "gridproxy")
	run := func(args ...string) {
		t.Helper()
		if out, err := exec.Command(gp, args...).CombinedOutput(); err != nil {
			t.Fatalf("gridproxy %v: %v\n%s", args, err, out)
		}
	}
	caKey := filepath.Join(dir, "ca.key")
	anchor := filepath.Join(dir, "ca.anchor")
	run("init-ca", "-name", "o=CLI CA", "-ca", caKey, "-anchor", anchor)
	topKey, midKey := filepath.Join(dir, "top.key"), filepath.Join(dir, "mid.key")
	run("issue", "-ca", caKey, "-subject", "cn=giis.top", "-out", topKey)
	run("issue", "-ca", caKey, "-subject", "cn=giis.mid", "-out", midKey)

	topAddr, midAddr := loopbackAddr(t), loopbackAddr(t)
	startTool(t, filepath.Join(bins, "giis"),
		"-name", "giis.top", "-suffix", "vo=clitest", "-listen", topAddr, "-vo", "clitest",
		"-keys", topKey, "-anchor", anchor, "-require-signed")
	waitPort(t, topAddr)
	startTool(t, filepath.Join(bins, "giis"),
		"-name", "giis.mid", "-suffix", "vo=clitest", "-listen", midAddr, "-vo", "clitest",
		"-keys", midKey, "-anchor", anchor, "-parent", topAddr, "-interval", "200ms", "-ttl", "5s")
	waitPort(t, midAddr)
	searchUntil(t, bins, topAddr, "vo=clitest", "url: ldap://"+midAddr, "-scope", "one", "(objectclass=mdsservice)")
}

func TestCLIGridsimDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	out, err := exec.Command(filepath.Join(bins, "gridsim"), "-advance", "30s").CombinedOutput()
	if err != nil {
		t.Fatalf("gridsim: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"3 directories, 6 hosts", "6 entries", "hn=r2.o1, o=o1, vo=alliance"} {
		if !strings.Contains(s, want) {
			t.Fatalf("gridsim output missing %q:\n%s", want, s)
		}
	}
}

// searchUntil runs gridsearch against server until its output contains
// want, and returns that output.
func searchUntil(t *testing.T, bins, server, base, want string, args ...string) string {
	t.Helper()
	args = append([]string{"-server", server, "-base", base}, args...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := exec.Command(filepath.Join(bins, "gridsearch"), args...).CombinedOutput()
		if err == nil && strings.Contains(string(out), want) {
			return string(out)
		}
		if time.Now().After(deadline) {
			t.Fatalf("gridsearch %v: want %q, got %v\n%s", args, want, err, out)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func loopbackAddr(t *testing.T) string {
	t.Helper()
	return fmt.Sprintf("127.0.0.1:%d", freePort(t))
}

// TestCLIStrategies drives every giis -strategy through the binaries: a
// gris registers with the directory, and a VO search through it finds the
// host (or, for referral, the host's GRIS URL). The sharded case runs a
// two-process ring with one owner per registration, so at least one of the
// two answers comes from a peer.
func TestCLIStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	startGRIS := func(t *testing.T, register string) string {
		addr := loopbackAddr(t)
		startTool(t, filepath.Join(bins, "gris"),
			"-host", "clihost", "-org", "cliorg", "-listen", addr, "-register", register,
			"-vo", "clitest", "-interval", "200ms", "-ttl", "5s")
		waitPort(t, addr)
		return addr
	}
	const hostDN = "hn=clihost, o=cliorg, vo=clitest"
	for _, strategy := range []string{"chain", "cache", "bloom", "referral"} {
		t.Run(strategy, func(t *testing.T) {
			giisAddr := loopbackAddr(t)
			startTool(t, filepath.Join(bins, "giis"),
				"-name", "giis."+strategy, "-suffix", "vo=clitest", "-listen", giisAddr,
				"-strategy", strategy, "-vo", "clitest")
			waitPort(t, giisAddr)
			grisAddr := startGRIS(t, giisAddr)
			want := "dn: " + hostDN
			if strategy == "referral" {
				want = "# referral: ldap://" + grisAddr
			}
			searchUntil(t, bins, giisAddr, "vo=clitest", want, "(objectclass=computer)")
		})
	}
	t.Run("sharded", func(t *testing.T) {
		a, b := loopbackAddr(t), loopbackAddr(t)
		ring := "a=ldap://" + a + ",b=ldap://" + b
		for id, addr := range map[string]string{"a": a, "b": b} {
			startTool(t, filepath.Join(bins, "giis"),
				"-name", "giis."+id, "-suffix", "vo=clitest", "-listen", addr,
				"-strategy", "sharded", "-shard-ring", ring, "-shard-id", id,
				"-replicas", "1", "-vo", "clitest")
			waitPort(t, addr)
		}
		startGRIS(t, a+","+b)
		for _, addr := range []string{a, b} {
			searchUntil(t, bins, addr, "vo=clitest", "dn: "+hostDN, "(objectclass=computer)")
		}
	})
}

// TestCLIMonitorDropsKilledChild: a gris registers with a mid giis, which
// registers with a top giis. After the gris is killed with SIGKILL its
// registration leaves the mid's monitor (cn=monitor under the mid's suffix)
// within one TTL and one refresh interval, and so does what the top shows
// of it, read by chaining at cn=monitor under the mid's view suffix.
func TestCLIMonitorDropsKilledChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	const ttl, interval = 3 * time.Second, 300 * time.Millisecond
	bins := buildTools(t)
	topAddr, midAddr, grisAddr := loopbackAddr(t), loopbackAddr(t), loopbackAddr(t)
	startTool(t, filepath.Join(bins, "giis"),
		"-name", "giis.top", "-suffix", "vo=top", "-listen", topAddr, "-vo", "clitest")
	waitPort(t, topAddr)
	startTool(t, filepath.Join(bins, "giis"),
		"-name", "giis.mid", "-suffix", "vo=mid", "-listen", midAddr, "-vo", "clitest",
		"-parent", topAddr, "-interval", "200ms", "-ttl", "5s")
	waitPort(t, midAddr)
	grisCmd := startTool(t, filepath.Join(bins, "gris"),
		"-host", "clihost", "-org", "cliorg", "-listen", grisAddr, "-register", midAddr,
		"-vo", "clitest", "-interval", interval.String(), "-ttl", ttl.String())

	row := "key: ldap://" + grisAddr
	views := []struct{ server, base string }{
		{midAddr, "cn=monitor, vo=mid"},
		{topAddr, "cn=monitor, vo=mid, vo=top"},
	}
	for _, v := range views {
		searchUntil(t, bins, v.server, v.base, row, "(objectclass=mdsregistration)")
	}

	grisCmd.Process.Kill()
	grisCmd.Wait()
	deadline := time.Now().Add(ttl + interval)
	for _, v := range views {
		for {
			out, err := exec.Command(filepath.Join(bins, "gridsearch"), "-server", v.server,
				"-base", v.base, "(objectclass=mdsregistration)").CombinedOutput()
			if err == nil && !strings.Contains(string(out), row) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s at %s still lists the killed gris %v after its TTL: %v\n%s", v.base, v.server, ttl+interval, err, out)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestCLIDataDirSurvivesRestart kills a persisted giis with SIGKILL after
// its only provider has stopped, restarts it on the same data directory,
// and finds the child still listed: it can only have come from the log,
// since nothing is left to refresh it.
func TestCLIDataDirSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dataDir := t.TempDir()
	giisAddr, grisAddr := loopbackAddr(t), loopbackAddr(t)
	startGIIS := func() *exec.Cmd {
		cmd := startTool(t, filepath.Join(bins, "giis"),
			"-name", "giis.durable", "-suffix", "vo=clitest", "-listen", giisAddr,
			"-strategy", "chain", "-vo", "clitest", "-data-dir", dataDir, "-wal-sync", "always")
		waitPort(t, giisAddr)
		return cmd
	}
	giisCmd := startGIIS()
	grisCmd := startTool(t, filepath.Join(bins, "gris"),
		"-host", "clihost", "-org", "cliorg", "-listen", grisAddr, "-register", giisAddr,
		"-vo", "clitest", "-interval", "1h", "-ttl", "10m")
	childURL := "url: ldap://" + grisAddr
	searchUntil(t, bins, giisAddr, "vo=clitest", childURL, "-scope", "one", "(objectclass=mdsservice)")

	grisCmd.Process.Kill()
	grisCmd.Wait()
	giisCmd.Process.Kill() // SIGKILL: no shutdown path runs
	giisCmd.Wait()

	startGIIS()
	out, err := exec.Command(filepath.Join(bins, "gridsearch"), "-server", giisAddr,
		"-base", "vo=clitest", "-scope", "one", "(objectclass=mdsservice)").CombinedOutput()
	if err != nil {
		t.Fatalf("gridsearch after restart: %v\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, childURL) || !strings.Contains(s, "recovered: TRUE") {
		t.Fatalf("child not recovered from %s:\n%s", dataDir, s)
	}
}

// TestCLIGRISDataDirRestartsWarm stops a persisted gris with SIGINT after one
// search has filled its provider rounds, restarts it on the same data
// directory, and asks for the host entry again: the answer must come from
// the recovered rounds, with no provider invoked since the restart. (The
// net=links subtree is left alone: its backend has no cache and always runs
// live.)
func TestCLIGRISDataDirRestartsWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildTools(t)
	dataDir := t.TempDir()
	grisAddr, obsAddr := loopbackAddr(t), loopbackAddr(t)
	const hostDN = "hn=clihost, o=cliorg"
	startGRIS := func() *exec.Cmd {
		cmd := startTool(t, filepath.Join(bins, "gris"),
			"-host", "clihost", "-org", "cliorg", "-listen", grisAddr,
			"-data-dir", dataDir, "-wal-sync", "always", "-obs-addr", obsAddr)
		waitPort(t, grisAddr)
		waitPort(t, obsAddr)
		return cmd
	}
	search := func() {
		t.Helper()
		searchUntil(t, bins, grisAddr, hostDN, "dn: "+hostDN, "-scope", "base", "(objectclass=*)")
	}

	cmd := startGRIS()
	search()
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	startGRIS()
	search()
	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\ngris_provider_invocations_total 0\n") {
		t.Fatalf("restarted gris invoked a provider to answer from %s:\n%s", dataDir, body)
	}
}
