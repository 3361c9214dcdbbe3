package analysis

import (
	"fmt"
	"go/ast"
)

// CtxFlow flags context.Background() and context.TODO() in library
// packages. A library that mints its own root context detaches the
// work from the caller's deadline and cancellation — the portal client
// and view cache must die with their caller, not outlive it. Roots
// belong at the program edge: package main (cmd/, examples/) and test
// files are exempt, and the documented non-Context convenience
// wrappers carry explicit //p4pvet:ignore suppressions.
var CtxFlow = callRule("ctxflow",
	"library code threads the caller's context; no Background()/TODO() outside main and tests",
	"context", []string{"Background", "TODO"},
	func(p *Pkg, f *ast.File) bool { return p.Types.Name() != "main" && !p.IsTestFile[f] },
	"%s() in library code detaches work from the caller's deadline; accept and thread a context.Context")

// SleepTest flags wall-clock time.Sleep calls in _test.go files. A
// sleep in a test encodes an assumption about scheduler latency that
// loaded CI machines routinely violate, producing flakes that are then
// "fixed" by sleeping longer; under -race the slowdown makes the
// assumption worse. Tests must synchronize on channels or inject a
// fake clock (see internal/apptracker's views tests for both
// patterns). time.After inside a select used as a watchdog timeout is
// deliberately not flagged: it bounds a hang, it does not pace the
// test.
var SleepTest = callRule("sleeptest",
	"no wall-clock time.Sleep in _test.go files; synchronize on channels or inject a clock",
	"time", []string{"Sleep"},
	func(p *Pkg, f *ast.File) bool { return p.IsTestFile[f] },
	"%s in a test races the scheduler; synchronize on a channel or inject a clock")

// callRule builds a rule that reports every static call of a
// package-level function pkg.F, F in funcs, made in a file that
// fileFilter admits. msg is a format whose one verb receives "pkg.F".
func callRule(name, doc, pkg string, funcs []string, fileFilter func(*Pkg, *ast.File) bool, msg string) *Analyzer {
	banned := set(funcs...)
	return &Analyzer{Name: name, Doc: doc, Run: func(p *Pkg) []Finding {
		var out []Finding
		for _, f := range p.Files {
			if !fileFilter(p, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || funcPkgPath(fn) != pkg || !banned[fn.Name()] || isMethod(fn) {
					return true
				}
				out = append(out, Finding{
					Pos:  p.Fset.Position(call.Pos()),
					Rule: name,
					Msg:  fmt.Sprintf(msg, pkg+"."+fn.Name()),
				})
				return true
			})
		}
		return out
	}}
}
