package mdslint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// lint parses the given path->source fixtures and runs the analyzers,
// returning findings as "path:line:rule" strings for compact assertions.
func lint(t *testing.T, analyzers []*Analyzer, files map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var paths []string
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var fs []*File
	for _, p := range paths {
		f, err := ParseSource(fset, p, files[p])
		if err != nil {
			t.Fatalf("parse fixture %s: %v", p, err)
		}
		fs = append(fs, f)
	}
	var out []string
	for _, fd := range RunAll(&Pass{Fset: fset, Files: fs}, analyzers) {
		out = append(out, fmt.Sprintf("%s:%d:%s", fd.Pos.Filename, fd.Pos.Line, fd.Rule))
	}
	return out
}

func wantFindings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("finding[%d] = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// --- clockcheck -------------------------------------------------------------

func TestClockCheck(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string // line:rule within that file
	}{
		{
			name: "time.Now in internal package is flagged",
			path: "internal/foo/foo.go",
			src: `package foo
import "time"
func f() time.Time { return time.Now() }
`,
			want: []string{"3:clockcheck"},
		},
		{
			name: "Sleep, After, Tick, NewTimer each flagged",
			path: "internal/foo/foo.go",
			src: `package foo
import "time"
func f() {
	time.Sleep(time.Second)
	<-time.After(time.Second)
	_ = time.Tick(time.Second)
	_ = time.NewTimer(time.Second)
}
`,
			want: []string{"4:clockcheck", "5:clockcheck", "6:clockcheck", "7:clockcheck"},
		},
		{
			name: "aliased time import is still caught",
			path: "internal/foo/foo.go",
			src: `package foo
import stdtime "time"
func f() stdtime.Time { return stdtime.Now() }
`,
			want: []string{"3:clockcheck"},
		},
		{
			name: "context deadlines run on the wall clock and are flagged",
			path: "internal/foo/foo.go",
			src: `package foo
import (
	"context"
	"time"
)
func f(d time.Duration, at time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	_, stop := context.WithDeadline(ctx, at)
	defer stop()
	_, done := context.WithCancel(ctx)
	done()
}
`,
			want: []string{"7:clockcheck", "9:clockcheck"},
		},
		{
			name: "context deadlines are fine in tests",
			path: "internal/foo/foo_test.go",
			src: `package foo
import "context"
func f() { _, cancel := context.WithTimeout(context.Background(), 1); cancel() }
`,
			want: nil,
		},
		{
			name: "pure constructors and arithmetic are fine",
			path: "internal/foo/foo.go",
			src: `package foo
import "time"
var epoch = time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)
func f(d time.Duration) time.Time { return epoch.Add(d) }
`,
			want: nil,
		},
		{
			name: "locally shadowed identifier is not the time package",
			path: "internal/foo/foo.go",
			src: `package foo
type clockish struct{}
func (clockish) Now() int { return 0 }
func f() int {
	time := clockish{}
	return time.Now()
}
`,
			want: nil,
		},
		{
			name: "softstate clock.go itself is exempt",
			path: "internal/softstate/clock.go",
			src: `package softstate
import "time"
func now() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "test files are exempt",
			path: "internal/foo/foo_test.go",
			src: `package foo
import "time"
func helper() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			// internal/experiments was retired with its exemption; a
			// harness that comes back is held to the clock rule.
			name: "experiments are no longer exempt",
			path: "internal/experiments/run.go",
			src: `package experiments
import "time"
func f() { time.Sleep(time.Second) }
`,
			want: []string{"3:clockcheck"},
		},
		{
			name: "cmd mains are exempt",
			path: "cmd/gris/main.go",
			src: `package main
import "time"
func f() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "examples are exempt",
			path: "examples/quickstart/main.go",
			src: `package main
import "time"
func f() time.Time { return time.Now() }
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lint(t, []*Analyzer{ClockCheck}, map[string]string{tc.path: tc.src})
			var want []string
			for _, w := range tc.want {
				want = append(want, tc.path+":"+w)
			}
			wantFindings(t, got, want)
		})
	}
}

// TestClockCheckCatchesOriginalGripLeak replays the pre-PR-2 body of
// grip.AuthenticateLDAP (the time.Now handed to the GSI handshake at what
// was grip.go line 59) and proves clockcheck rejects it.
func TestClockCheckCatchesOriginalGripLeak(t *testing.T) {
	src := `package grip
import (
	"time"

	"mds2/internal/gsi"
	"mds2/internal/ldap"
)
func AuthenticateLDAP(c *ldap.Client, keys *gsi.KeyPair, trust *gsi.TrustStore) (*gsi.Credential, error) {
	hs := gsi.NewClientHandshake(keys, trust, time.Now)
	hello, err := hs.Hello()
	if err != nil {
		return nil, err
	}
	_ = hello
	return hs.Server(), nil
}
`
	got := lint(t, []*Analyzer{ClockCheck}, map[string]string{"internal/grip/grip.go": src})
	wantFindings(t, got, []string{"internal/grip/grip.go:9:clockcheck"})
}

// --- lockcheck --------------------------------------------------------------

func TestLockCheck(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "send while holding lock",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
			want: []string{"5:lockcheck"},
		},
		{
			name: "receive under deferred unlock",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch
}
`,
			want: []string{"6:lockcheck"},
		},
		{
			name: "select while locked",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, a, b chan int) {
	mu.Lock()
	select {
	case <-a:
	case <-b:
	}
	mu.Unlock()
}
`,
			want: []string{"5:lockcheck"},
		},
		{
			name: "WaitGroup wait while locked",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait()
	mu.Unlock()
}
`,
			want: []string{"5:lockcheck"},
		},
		{
			name: "unlock before send is clean (the FakeClock.Advance shape)",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	v := 1
	mu.Unlock()
	ch <- v
}
`,
			want: nil,
		},
		{
			name: "send inside func literal is not under the caller's lock",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, ch chan int) func() {
	mu.Lock()
	defer mu.Unlock()
	return func() { ch <- 1 }
}
`,
			want: nil,
		},
		{
			name: "goroutine launched under lock runs without it",
			src: `package foo
import "sync"
func f(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	go func() { ch <- 1 }()
	mu.Unlock()
}
`,
			want: nil,
		},
		{
			name: "RLock across receive flagged, nested block honored",
			src: `package foo
import "sync"
func f(mu *sync.RWMutex, ch chan int, cond bool) {
	mu.RLock()
	if cond {
		<-ch
	}
	mu.RUnlock()
}
`,
			want: []string{"6:lockcheck"},
		},
		{
			name: "different mutexes tracked independently",
			src: `package foo
import "sync"
func f(a, b *sync.Mutex, ch chan int) {
	a.Lock()
	a.Unlock()
	b.Lock()
	defer b.Unlock()
	ch <- 1
}
`,
			want: []string{"8:lockcheck"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const path = "internal/foo/foo.go"
			got := lint(t, []*Analyzer{LockCheck}, map[string]string{path: tc.src})
			var want []string
			for _, w := range tc.want {
				want = append(want, path+":"+w)
			}
			wantFindings(t, got, want)
		})
	}
}

// --- errchecklite -----------------------------------------------------------

// berFixture declares a slice of the real internal/ber surface so the
// index sees error-returning functions and methods.
const berFixture = `package ber
type Packet struct{}
func Append(dst []byte, p *Packet) error { return nil }
func Decode(b []byte) (*Packet, error) { return nil, nil }
func Length(b []byte) int { return 0 }
type Writer struct{}
func (w *Writer) WriteTo(b []byte) error { return nil }
`

func TestErrCheckLite(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "bare package call dropping error",
			src: `package foo
import "mds2/internal/ber"
func f(b []byte) {
	ber.Append(b, nil)
}
`,
			want: []string{"4:errchecklite"},
		},
		{
			name: "checked and blanked calls are fine",
			src: `package foo
import "mds2/internal/ber"
func f(b []byte) error {
	if err := ber.Append(b, nil); err != nil {
		return err
	}
	_ = ber.Append(b, nil)
	return nil
}
`,
			want: nil,
		},
		{
			name: "non-error function is fine",
			src: `package foo
import "mds2/internal/ber"
func f(b []byte) {
	ber.Length(b)
}
`,
			want: nil,
		},
		{
			name: "error-returning method with encode shape",
			src: `package foo
import "mds2/internal/ber"
func f(w *ber.Writer, b []byte) {
	w.WriteTo(b)
}
`,
			want: []string{"4:errchecklite"},
		},
		{
			name: "foreign package call with matching name is out of scope",
			src: `package foo
import "fmt"
type buf struct{}
func f(b []byte) {
	fmt.Println(string(b))
}
`,
			want: nil,
		},
		{
			name: "net.Conn write dropped",
			src: `package foo
import "net"
func f(conn net.Conn, b []byte) {
	conn.Write(b)
}
`,
			want: []string{"4:errchecklite"},
		},
		{
			name: "net.Conn write with handled error is fine",
			src: `package foo
import "net"
func f(conn net.Conn, b []byte) error {
	_, err := conn.Write(b)
	return err
}
`,
			want: nil,
		},
		{
			name: "go and defer forms also flagged",
			src: `package foo
import "mds2/internal/ber"
func f(b []byte) {
	go ber.Append(b, nil)
	defer ber.Append(b, nil)
}
`,
			want: []string{"4:errchecklite", "5:errchecklite"},
		},
		{
			name: "test files are exempt",
			src:  "", // path-driven case below
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"internal/ber/ber.go": berFixture}
			path := "internal/foo/foo.go"
			src := tc.src
			if tc.name == "test files are exempt" {
				path = "internal/foo/foo_test.go"
				src = "package foo\nimport \"mds2/internal/ber\"\nfunc f(b []byte) {\n\tber.Append(b, nil)\n}\n"
			}
			files[path] = src
			got := lint(t, []*Analyzer{ErrCheckLite}, files)
			var want []string
			for _, w := range tc.want {
				want = append(want, path+":"+w)
			}
			wantFindings(t, got, want)
		})
	}
}

// --- goroutinecheck ---------------------------------------------------------

func TestGoroutineCheck(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "bare spin loop is flagged",
			path: "internal/foo/foo.go",
			src: `package foo
func work() {}
func f() {
	go func() {
		for {
			work()
		}
	}()
}
`,
			want: []string{"4:goroutinecheck"},
		},
		{
			name: "select on done channel is a cancellation path",
			path: "internal/foo/foo.go",
			src: `package foo
func f(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
		}
	}()
}
`,
			want: nil,
		},
		{
			name: "context parameter is a cancellation path",
			path: "internal/foo/foo.go",
			src: `package foo
import "context"
func f(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}
`,
			want: nil,
		},
		{
			name: "result send is a release path",
			path: "internal/foo/foo.go",
			src: `package foo
func f(results chan int) {
	go func() {
		results <- 1
	}()
}
`,
			want: nil,
		},
		{
			name: "named callee judged by its own body",
			path: "internal/foo/foo.go",
			src: `package foo
type r struct{ done chan struct{} }
func (x *r) loop() {
	<-x.done
}
func (x *r) spin() {
	for {
	}
}
func f(x *r) {
	go x.loop()
	go x.spin()
}
`,
			want: []string{"12:goroutinecheck"},
		},
		{
			name: "reader unblocked by conn close is accepted",
			path: "internal/foo/foo.go",
			src: `package foo
import "net"
type c struct{ conn net.Conn }
func (x *c) readLoop() {
	buf := make([]byte, 64)
	for {
		if _, err := x.conn.Read(buf); err != nil {
			return
		}
	}
}
func f(x *c) {
	go x.readLoop()
}
`,
			want: nil,
		},
		{
			name: "cmd mains are exempt",
			path: "cmd/gris/main.go",
			src: `package main
func spin() {}
func f() {
	go func() {
		for {
			spin()
		}
	}()
}
`,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lint(t, []*Analyzer{GoroutineCheck}, map[string]string{tc.path: tc.src})
			var want []string
			for _, w := range tc.want {
				want = append(want, tc.path+":"+w)
			}
			wantFindings(t, got, want)
		})
	}
}

// --- unsafecheck ------------------------------------------------------------

func TestUnsafeCheck(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want []string // line:rule within that file
	}{
		{
			name: "unsafe view minting outside ber",
			path: "internal/app/app.go",
			src: `package app

import "unsafe"

func view(b []byte) string {
	return unsafe.String(&b[0], len(b))
}
`,
			want: []string{"6:unsafecheck"},
		},
		{
			name: "every minter is flagged, under any import name",
			path: "internal/app/app.go",
			src: `package app

import u "unsafe"

func views(b []byte, s string) {
	_ = u.Slice(&b[0], len(b))
	_ = u.StringData(s)
	_ = u.SliceData(b)
}
`,
			want: []string{"6:unsafecheck", "7:unsafecheck", "8:unsafecheck"},
		},
		{
			name: "the ber package mints views",
			path: "internal/ber/view.go",
			src: `package ber

import "unsafe"

func view(b []byte) string { return unsafe.String(&b[0], len(b)) }
`,
		},
		{
			name: "test files are exempt",
			path: "internal/app/app_test.go",
			src: `package app

import "unsafe"

func view(b []byte) string { return unsafe.String(&b[0], len(b)) }
`,
		},
		{
			name: "unsafe.Pointer and Sizeof are not view minting",
			path: "internal/app/app.go",
			src: `package app

import "unsafe"

func size(p *int) (uintptr, unsafe.Pointer) { return unsafe.Sizeof(*p), unsafe.Pointer(p) }
`,
		},
		{
			name: "a local named unsafe is not the package",
			path: "internal/app/app.go",
			src: `package app

import "unsafe"

type view struct{}

func (view) String() string { return "" }

func f() (string, uintptr) {
	unsafe := view{}
	return unsafe.String(), 0
}

var _ = unsafe.Sizeof(0)
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := lint(t, []*Analyzer{UnsafeCheck}, map[string]string{tc.path: tc.src})
			var want []string
			for _, w := range tc.want {
				want = append(want, tc.path+":"+w)
			}
			wantFindings(t, got, want)
		})
	}
}

// --- ignore directive -------------------------------------------------------

func TestIgnoreDirective(t *testing.T) {
	const path = "internal/foo/foo.go"

	t.Run("same-line directive suppresses its rule", func(t *testing.T) {
		src := `package foo
import "time"
func f() time.Time {
	return time.Now() //mdslint:ignore clockcheck wall clock wanted for log stamps
}
`
		wantFindings(t, lint(t, Analyzers(), map[string]string{path: src}), nil)
	})

	t.Run("line-above directive suppresses its rule", func(t *testing.T) {
		src := `package foo
import "time"
func f() time.Time {
	//mdslint:ignore clockcheck wall clock wanted for log stamps
	return time.Now()
}
`
		wantFindings(t, lint(t, Analyzers(), map[string]string{path: src}), nil)
	})

	t.Run("directive for one rule leaves others active", func(t *testing.T) {
		src := `package foo
import (
	"sync"
	"time"
)
func f(mu *sync.Mutex, ch chan time.Time) {
	mu.Lock()
	//mdslint:ignore clockcheck wrong rule named here
	ch <- time.Now()
	mu.Unlock()
}
`
		got := lint(t, Analyzers(), map[string]string{path: src})
		wantFindings(t, got, []string{path + ":9:lockcheck"})
	})

	t.Run("directive without reason is itself a finding", func(t *testing.T) {
		src := `package foo
import "time"
func f() time.Time {
	return time.Now() //mdslint:ignore clockcheck
}
`
		got := lint(t, Analyzers(), map[string]string{path: src})
		wantFindings(t, got, []string{path + ":4:clockcheck", path + ":4:directive"})
	})

	t.Run("directive does not leak to later lines", func(t *testing.T) {
		src := `package foo
import "time"
func f() (time.Time, time.Time) {
	a := time.Now() //mdslint:ignore clockcheck first call audited
	b := time.Now()
	return a, b
}
`
		got := lint(t, Analyzers(), map[string]string{path: src})
		wantFindings(t, got, []string{path + ":5:clockcheck"})
	})
}

func TestFindingString(t *testing.T) {
	f := Finding{Pos: token.Position{Filename: "a/b.go", Line: 3, Column: 7}, Rule: "clockcheck", Msg: "m"}
	if got := f.String(); !strings.Contains(got, "a/b.go:3:7") || !strings.Contains(got, "[clockcheck]") {
		t.Fatalf("String() = %q", got)
	}
}

// TestRepoClean runs the whole suite over the whole module: the tree must
// lint clean, with every exception carried by an ignore directive.
func TestRepoClean(t *testing.T) {
	fset := token.NewFileSet()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pass, err := LoadModule(fset, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunAll(pass, Analyzers()) {
		t.Errorf("%s", f)
	}
}
