// Command mdslint runs the project's custom static analyzers over the
// tree and exits non-zero when any concurrency, determinism, or memory
// invariant is violated (see internal/mdslint and DESIGN.md "Static
// analysis & invariants" / "Invariant catalog").
//
// Every Go file of the module, tests included, is parsed once and every
// analyzer reads that syntax; nothing is type-checked. The invariants that
// would need types (sealed snapshots, frame lifetimes, balanced BER
// elements) are checked at run time under -tags mdsdebug instead.
//
// Usage:
//
//	go run ./cmd/mdslint          # whole module
//	go run ./cmd/mdslint -rules   # list analyzers
//	go run ./cmd/mdslint -json    # machine-readable findings
//	go run ./cmd/mdslint -github  # GitHub Actions ::error annotations
//
// Suppress a finding, with a reason, on the offending line or the line
// above:
//
//	//mdslint:ignore lockcheck send on buffered chan, cap 1, cannot block
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"
	"time"

	"mds2/internal/mdslint"
)

type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func main() {
	rules := flag.Bool("rules", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	timing := flag.Bool("time", false, "report parse+analysis wall clock to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: mdslint [-rules] [-json|-github] [-time]\n\n"+
				"the whole module is parsed and linted\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := mdslint.Analyzers()
	if *rules {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	fset := token.NewFileSet()
	start := time.Now()
	var pass *mdslint.Pass
	wd, err := os.Getwd()
	if err == nil {
		var root string
		root, err = mdslint.FindModuleRoot(wd)
		if err == nil {
			pass, err = mdslint.LoadModule(fset, root)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdslint:", err)
		os.Exit(2)
	}
	loaded := time.Since(start)

	findings := mdslint.RunAll(pass, analyzers)
	if *timing {
		fmt.Fprintf(os.Stderr, "mdslint: load %v, analyze %v (%d files)\n",
			loaded.Round(time.Millisecond), (time.Since(start) - loaded).Round(time.Millisecond), len(pass.Files))
	}

	switch {
	case *asJSON:
		out := make([]jsonFinding, len(findings))
		for i, f := range findings {
			out[i] = jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column, Rule: f.Rule, Msg: f.Msg}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mdslint:", err)
			os.Exit(2)
		}
	case *github:
		for _, f := range findings {
			// ::error annotation values must not contain raw newlines.
			msg := strings.ReplaceAll(f.Msg, "\n", " ")
			fmt.Printf("::error file=%s,line=%d,col=%d,title=mdslint(%s)::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, msg)
		}
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mdslint: %d finding(s) in %d file(s)\n", len(findings), len(pass.Files))
		os.Exit(1)
	}
}
