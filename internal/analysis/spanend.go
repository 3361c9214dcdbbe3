package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// SpanEnd flags spans that can leak: a `Start*` call whose `*Span`
// result escapes into a variable must be ended on every path out of
// the function — `defer span.End()` anywhere in the function, or an
// explicit `span.End()` (or a return of the span itself, which hands
// ownership to the caller) reachable on all control-flow paths after
// the Start. A span that is never ended never reaches the collector:
// the trace silently loses its subtree, and for a root span the whole
// trace is dropped, which is exactly the kind of observability hole
// that only shows up during an outage. Matching is structural — any
// callee named Start* returning a pointer to a type named Span — so
// the fixture package needs no dependency on internal/trace.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every *Span from a Start* call must be ended on all paths (prefer defer span.End())",
	Run:  runSpanEnd,
}

func runSpanEnd(p *Pkg) []Finding {
	var out []Finding
	forEachFuncBody(p, func(f *ast.File, body *ast.BlockStmt) {
		if !p.IsTestFile[f] {
			out = append(out, checkSpanUnit(p, body)...)
		}
	})
	return out
}

// checkSpanUnit checks one function body (FuncDecl or FuncLit),
// ignoring nested function literals — they are separate units with
// their own span discipline.
func checkSpanUnit(p *Pkg, body *ast.BlockStmt) []Finding {
	var out []Finding
	var cfg *CFG // built on the first Start without a deferred End; most units have none
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(p, call)
		if callee == nil || !strings.HasPrefix(callee.Name(), "Start") {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			if obj == nil || !isSpanPointer(obj.Type()) {
				continue
			}
			if hasDeferredEnd(p, body, obj) {
				continue
			}
			if cfg == nil {
				cfg = BuildCFG(body)
			}
			if !endedOnEveryPath(p, cfg, assign, obj) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(assign.Pos()),
					Rule: "spanend",
					Msg: fmt.Sprintf("span %q from %s is not ended on every path; add `defer %s.End()` right after the Start call",
						id.Name, callee.Name(), id.Name),
				})
			}
		}
		return true
	})
	return out
}

// isSpanPointer reports whether t is *Span for any named type Span.
func isSpanPointer(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// isEndCall reports whether e is a call of obj.End(...).
func isEndCall(p *Pkg, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// identRefers reports whether e is an identifier bound to obj.
func identRefers(p *Pkg, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// hasDeferredEnd reports whether the unit registers `defer obj.End()`
// anywhere (outside nested funclits). A deferred End runs on every exit
// path including panics, so its presence settles the check.
func hasDeferredEnd(p *Pkg, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && isEndCall(p, d.Call, obj) {
			found = true
		}
		return !found
	})
	return found
}

// endsSpan reports whether CFG node n settles obj on its path: an
// obj.End() statement, a return that hands obj to the caller, or a
// panic (the block feeds Exit, but an open span on a crashing path is
// not the leak this rule is about).
func endsSpan(p *Pkg, n ast.Node, obj types.Object) bool {
	switch st := n.(type) {
	case *ast.ExprStmt:
		return isEndCall(p, st.X, obj) || isPanicCall(st.X)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if identRefers(p, r, obj) {
				return true
			}
		}
	}
	return false
}

// endedOnEveryPath reports whether every path on from the Start
// assignment passes an end of obj before it reaches Exit or comes back
// round a loop to the Start itself (the next iteration's span replaces
// this one, still open).
func endedOnEveryPath(p *Pkg, cfg *CFG, start ast.Stmt, obj types.Object) bool {
	ends := func(nodes []ast.Node) bool {
		for _, n := range nodes {
			if endsSpan(p, n, obj) {
				return true
			}
		}
		return false
	}
	for _, b := range cfg.Blocks {
		for i, n := range b.Nodes {
			if n != ast.Node(start) {
				continue
			}
			if ends(b.Nodes[i+1:]) {
				return true
			}
			return !Escapes(b.Succs, func(s *Block) bool { return ends(s.Nodes) }, cfg.Exit, b)
		}
	}
	return false // the Start sits where the CFG holds no node for it; be conservative
}
