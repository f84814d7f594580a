package mdslint

import (
	"go/ast"
	"go/token"
)

// GoroutineCheck flags `go` launches with no visible cancellation path. A
// goroutine that can neither be signalled (context, done channel, select)
// nor unblocked by closing the resource it reads from is a leak: under
// the GRRP soft-state model every long-lived activity must die when the
// state that spawned it expires.
//
// Accepted as cancellation evidence, anywhere in the goroutine body, the
// launch arguments, or (one level deep) the body of a same-repo function
// the statement calls:
//
//   - a select statement or any channel send/receive/close/range;
//   - a context mention (an identifier named ctx, the context package, or
//     a Done()/Err() call);
//   - Clock.After / timer waits (an After(...) call);
//   - sync waits (Wait());
//   - a blocking call that fails when its source closes — Accept, Read,
//     ReadFrom, ReadMessage, ReadFull, Recv, Scan — the idiomatic exit
//     path for connection readers and accept loops.
//
// cmd/, examples/ and tests are exempt: mains own process-lifetime
// goroutines, and tests are torn down with the test binary.
const ruleGoroutine = "goroutinecheck"

var GoroutineCheck = &Analyzer{
	Name: ruleGoroutine,
	Doc:  "every goroutine needs a cancellation path (context, done channel, Clock.After, or closable blocking source)",
	Run:  runGoroutineCheck,
}

func goroutineCheckExempt(path string) bool {
	return isTestFile(path) ||
		pathHasDir(path, "cmd") ||
		pathHasDir(path, "examples")
}

// cancellationCalls are method/function names whose invocation implies the
// goroutine can be released.
var cancellationCalls = map[string]bool{
	"Done": true, "Err": true, "After": true, "Wait": true,
	"Accept": true, "Read": true, "ReadFrom": true, "ReadMessage": true,
	"ReadFull": true, "Recv": true, "Scan": true,
}

func runGoroutineCheck(p *Pass) []Finding {
	// Index every function/method declaration in the pass by name so a
	// `go x.loop()` launch can be judged by loop's own body.
	decls := map[string][]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.AST.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				decls[fn.Name.Name] = append(decls[fn.Name.Name], fn)
			}
		}
	}
	var out []Finding
	for _, f := range p.Files {
		if goroutineCheckExempt(f.Path) {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goStmtHasCancellation(g, decls) {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(g.Pos()),
				Rule: ruleGoroutine,
				Msg:  "goroutine has no cancellation path (no context, done channel, Clock.After, or closable blocking source in scope)",
			})
			return true
		})
	}
	return out
}

func goStmtHasCancellation(g *ast.GoStmt, decls map[string][]*ast.FuncDecl) bool {
	// The launch expression itself: a func literal body, plus arguments
	// (passing a ctx or a channel counts — the callee received the means).
	if hasCancellationEvidence(g.Call) {
		return true
	}
	// One level into same-repo callees, matched by name.
	var name string
	switch fun := g.Call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	for _, fn := range decls[name] {
		if hasCancellationEvidence(fn.Body) {
			return true
		}
	}
	return false
}

func hasCancellationEvidence(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch v := c.(type) {
		case *ast.SelectStmt, *ast.SendStmt, *ast.RangeStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.ChanType:
			found = true
		case *ast.Ident:
			if v.Name == "ctx" || v.Name == "context" || v.Name == "cancel" {
				found = true
			}
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" || fun.Name == "cancel" {
					found = true
				}
			case *ast.SelectorExpr:
				if cancellationCalls[fun.Sel.Name] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
