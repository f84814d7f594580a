// Command bench is the repository's one benchmark: four closed-loop
// GRIP/GRRP workloads over real loopback TCP against a re-executed server
// process that reports its own CPU, allocations and memory, plus a traced
// run and an in-process layer pass behind -layers. See README.md.
//
//	bash bench/run.sh [-workload name|all] [-seed N] [-seconds S] [-json file] [-layers] [-out dir]
//	bash bench/run.sh -check
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the timed window per workload; BENCHMARK.json's
// run_seconds is generated from it.
const defaultSeconds = 25

// gatedSetups is how many times a gated run sets the topology up; setup_s
// is the median.
const gatedSetups = 3

// layerPhaseShare is the share of -seconds each of the two -layers phases
// (untraced, traced) measures for.
const layerPhaseShare = 0.4

type options struct {
	speed     *speedometer
	seed      int64
	seconds   float64
	layers    bool
	out       string
	dropEntry bool
}

// result is one workload's outcome.
type result struct {
	Workload  string                 `json:"workload"`
	Params    map[string]any         `json:"params"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Diagnostics are printed but are not part of the gated metric set.
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
}

func main() {
	var (
		serveMode = flag.Bool("serve", false, "internal: run as the server process")
		workload  = flag.String("workload", "all", "workload to run: all or one of "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed for every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "timed window per workload, cut into 10 slices")
		trace     = flag.Int("trace", 0, "1 = -layers")
		layers    = flag.Bool("layers", false, "per-layer metrics: traced run + in-process layer pass, instead of the gated run")
		jsonPath  = flag.String("json", "", "also write the full result document to this file")
		out       = flag.String("out", "", "directory for trace-<workload>.json and scratch files (default: a temp dir)")
		check     = flag.Bool("check", false, "stand each topology up, run the verified warm-up, and exit")
		selfcheck = flag.Bool("selfcheck", false, "run the gated suite twice; fail if any end-to-end metric differs by more than its bound")
		dropEntry = flag.Bool("drop-entry", false, "checker self-test: give the topology one entry too few; the check must fail")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric tables and exit")
	)
	flag.Parse()
	if *serveMode {
		if err := serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench -serve:", err)
			os.Exit(1)
		}
		return
	}
	if *printMan {
		os.Stdout.Write(manifest(defaultSeconds))
		return
	}
	names := workloadNames()
	if *workload != "all" {
		names = []string{*workload}
	}
	speed, err := startSpeedometer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: speedometer:", err)
		os.Exit(1)
	}
	defer speed.close()
	opt := options{speed: speed, seed: *seed, seconds: *seconds, layers: *layers || *trace == 1, out: *out, dropEntry: *dropEntry}
	if err := run(names, opt, *check, *selfcheck, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(names []string, opt options, check, selfcheck bool, jsonPath string) error {
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if opt.out == "" {
		dir, err := os.MkdirTemp("", "mds2-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opt.out = dir
	} else if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	switch {
	case check:
		for _, name := range names {
			n, err := runCheck(name, opt)
			if err != nil {
				return err
			}
			fmt.Printf("check %-16s ok: %d operations verified\n", name, n)
		}
		return nil
	case selfcheck:
		return runSelfcheck(names, opt)
	}
	var results []*result
	for _, name := range names {
		var res *result
		var err error
		if opt.layers {
			res, err = runLayers(name, opt)
		} else {
			res, err = runGated(name, opt)
		}
		if err != nil {
			return err
		}
		results = append(results, res)
		printTable(res)
	}
	if jsonPath != "" {
		if err := writeDocument(jsonPath, opt, results); err != nil {
			return err
		}
	}
	// The machine-readable result is the last line of standard output.
	for _, res := range results {
		if err := printResultLine(res, opt.layers); err != nil {
			return err
		}
	}
	return nil
}

// generate builds the workload and, for the checker self-test, removes one
// entry the first search will ask for.
func generate(name string, opt options) (*workload, error) {
	w, err := buildWorkload(name, opt.seed)
	if err != nil {
		return nil, err
	}
	if opt.dropEntry {
		twin, err := buildWorkload(name, opt.seed)
		if err != nil {
			return nil, err
		}
		if err := sabotage(w, twin.search[len(twin.search)-1].next()); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// sabotage removes one entry (or registration) from w that first, the first
// search of the last stream, must return.
func sabotage(w *workload, first op) error {
	// The selecting term is the last positive conjunct of the filter.
	f := first.Filter
	if j := strings.Index(f, "(!("); j >= 0 {
		f = f[:j]
	}
	attr, value, ok := strings.Cut(strings.TrimRight(f[strings.LastIndexByte(f, '(')+1:], ")"), "=")
	if !ok {
		return fmt.Errorf("sabotage: no attr=value in %q", first.Filter)
	}
	if attr == "vo" {
		for k, r := range w.regs {
			if r.VO == value {
				// The oracle still believes the provider registered.
				now := time.Now()
				w.idents.sending(r.URL, r.Ident%voCount, now, now.Add(r.ValidFor))
				w.idents.acked(r.URL, now, now.Add(r.ValidFor))
				w.regs = append(w.regs[:k], w.regs[k+1:]...)
				return nil
			}
		}
	}
	for n := range w.nodes {
		for k, e := range w.nodes[n].Entries {
			for _, a := range e.Attrs {
				if a[0] == attr && a[1] == value {
					es := w.nodes[n].Entries
					w.nodes[n].Entries = append(es[:k:k], es[k+1:]...)
					return nil
				}
			}
		}
	}
	return fmt.Errorf("sabotage: nothing matches %s=%s", attr, value)
}

// runCheck stands the topology up, runs the verified warm-up only, and
// returns how many operations it verified.
func runCheck(name string, opt options) (int64, error) {
	w, err := generate(name, opt)
	if err != nil {
		return 0, err
	}
	s, _, err := setup(w, false, opt.speed)
	if err != nil {
		return 0, err
	}
	return s.attempted.Load(), s.close()
}

// runGated is the gated run: set-up gatedSetups times, one timed window,
// the end-to-end metrics.
func runGated(name string, opt options) (*result, error) {
	var setups []float64
	var s *session
	for i := 0; i < gatedSetups; i++ {
		w, err := generate(name, opt)
		if err != nil {
			return nil, err
		}
		next, took, err := setup(w, false, opt.speed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < gatedSetups-1 {
			if err := next.close(); err != nil {
				return nil, err
			}
			continue
		}
		s = next
	}
	win, err := s.window(time.Duration(opt.seconds*float64(time.Second)), false)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	metrics, err := endToEndMetrics(win, setups)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := s.result(metrics)
	res.Diagnostics = diagnostics(win)
	for k, v := range counterMetrics(win) {
		res.Diagnostics[k] = v
	}
	return res, nil
}

func (s *session) result(metrics map[string]metricValue) *result {
	res := &result{Workload: s.w.name, Params: s.w.params, Metrics: metrics,
		Attempted: s.attempted.Load(), Failed: s.failed.Load()}
	res.Correct = res.Failed == 0
	if s.firstErr != nil {
		res.FirstErr = s.firstErr.Error()
	}
	return res
}

// runLayers produces the per-layer metric set: an untraced phase (its
// counters, its tails, and the rate tracing is compared against), a traced
// phase against a fresh server process with tracing on in every tier, and
// the in-process layer pass.
func runLayers(name string, opt options) (*result, error) {
	phase := time.Duration(opt.seconds * layerPhaseShare * float64(time.Second))
	runPhase := func(trace bool) (*session, *windowResult, error) {
		w, err := generate(name, opt)
		if err != nil {
			return nil, nil, err
		}
		s, _, err := setup(w, trace, opt.speed)
		if err != nil {
			return nil, nil, err
		}
		win, err := s.window(phase, trace)
		if cerr := s.close(); err == nil {
			err = cerr
		}
		return s, win, err
	}
	plainS, plain, err := runPhase(false)
	if err != nil {
		return nil, err
	}
	tracedS, traced, err := runPhase(true)
	if err != nil {
		return nil, err
	}
	metrics := diagnostics(plain)
	for k, v := range counterMetrics(plain) {
		metrics[k] = v
	}
	tm := traceMetrics(traced.traces)
	for k, v := range tm {
		metrics[k] = v
	}
	perS := func(r *windowResult) float64 {
		return overSlices(sliceStats(r.search, r.bounds, r.speed), "1/s",
			func(s sliceStat) float64 { return s.rate(s.perS) }).Value
	}
	overhead := metricValue{Unit: "ratio", Samples: len(traced.traces)}
	if base := perS(plain); base > 0 {
		overhead.Value = 1 - perS(traced)/base
	}
	metrics["trace.overhead_share"] = overhead
	tracePath := filepath.Join(opt.out, "trace-"+name+".json")
	if err := writeTraces(tracePath, name, traced.traces, tm); err != nil {
		return nil, err
	}
	lp, err := layerPass(opt.seed, opt.out)
	if err != nil {
		return nil, err
	}
	for k, v := range lp {
		metrics[k] = v
	}
	res := plainS.result(metrics)
	res.Attempted += tracedS.attempted.Load()
	res.Failed += tracedS.failed.Load()
	res.Correct = res.Failed == 0
	if res.FirstErr == "" && tracedS.firstErr != nil {
		res.FirstErr = tracedS.firstErr.Error()
	}
	if len(traced.traces) == 0 {
		return nil, fmt.Errorf("%s: the traced phase returned no span trees", name)
	}
	return res, nil
}

// runSelfcheck runs the gated suite twice on the same seed and holds the
// two against each other with the benchmark's own bounds.
func runSelfcheck(names []string, opt options) error {
	bad := 0
	for _, name := range names {
		a, err := runGated(name, opt)
		if err != nil {
			return err
		}
		b, err := runGated(name, opt)
		if err != nil {
			return err
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			dev := 0.0
			if va != 0 {
				dev = (vb - va) / va
				if dev < 0 {
					dev = -dev
				}
			}
			verdict := "ok"
			if dev > m.Bound {
				verdict = "OVER BOUND"
				bad++
			}
			fmt.Printf("%-16s %-26s %12.4f %12.4f  %5.1f%% of %4.0f%%  %s\n",
				name, m.Name, va, vb, dev*100, m.Bound*100, verdict)
		}
		if !a.Correct || !b.Correct {
			return fmt.Errorf("%s: failed operations: %s%s", name, a.FirstErr, b.FirstErr)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same code", bad)
	}
	return nil
}

// defs returns the metric definitions a mode reports, in table order.
func defs(layers bool) []metricDef {
	if layers {
		return perLayer
	}
	return endToEnd
}

func printTable(res *result) {
	fmt.Printf("\n%s  (attempted %d, failed %d)\n", res.Workload, res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Printf("  first failure: %s\n", res.FirstErr)
	}
	row := func(name string, mv metricValue) {
		fmt.Printf("  %-36s %14.4f %-6s n=%d\n", name, mv.Value, mv.Unit, mv.Samples)
	}
	listed := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if mv, ok := res.Metrics[m.Name]; ok {
				row(m.Name, mv)
				listed[m.Name] = true
			}
		}
	}
	var diag []string
	for k := range res.Diagnostics {
		if !listed[k] {
			diag = append(diag, k)
		}
	}
	sort.Strings(diag)
	if len(diag) > 0 {
		fmt.Println("  -- diagnostics (not gated) --")
	}
	for _, k := range diag {
		row(k, res.Diagnostics[k])
	}
}

// printResultLine prints the one-line result the acceptance driver reads:
// exactly the metric set of the mode, value and unit only.
func printResultLine(res *result, layers bool) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]vu{}}
	for _, m := range defs(layers) {
		mv, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		line.Metrics[m.Name] = vu{mv.Value, m.Unit}
	}
	b, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// commit reports the VCS revision the binary was built from, if stamped.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeDocument(path string, opt options, results []*result) error {
	doc := struct {
		Commit      string    `json:"commit"`
		GoVersion   string    `json:"go_version"`
		NumCPU      int       `json:"nproc"`
		DriverProcs int       `json:"driver_gomaxprocs"`
		ServerProcs int       `json:"server_gomaxprocs"`
		Seed        int64     `json:"seed"`
		Seconds     float64   `json:"seconds"`
		Slices      int       `json:"slices"`
		Layers      bool      `json:"layers"`
		Results     []*result `json:"results"`
	}{commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), serverProcs(),
		opt.seed, opt.seconds, sliceCount, opt.layers, results}
	b, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
