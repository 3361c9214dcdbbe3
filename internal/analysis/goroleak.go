package analysis

import (
	"go/ast"
	"go/types"
)

// GoroLeak requires every go statement in non-test code to carry a
// termination witness — structural evidence that the goroutine can
// stop. Accepted witnesses, checked against the spawned function:
//
//   - it references a context.Context (plumbed parameter or captured
//     variable; selecting on ctx.Done() is the canonical exit);
//   - it calls (*sync.WaitGroup).Done, deferred or not, tying its
//     lifetime to a Wait elsewhere;
//   - it ranges over a channel (the worker-pool shape: the goroutine
//     exits when the channel is closed);
//   - it closes a captured channel on every CFG path (including by
//     defer), signaling completion to a receiver;
//   - it sends on a channel created in the enclosing function with a
//     non-zero buffer (the one-shot errCh <- srv.ListenAndServe()
//     shape: the send cannot block forever, so the goroutine ends).
//
// A `go someFunc(...)` spawning a named function counts as witnessed
// only when an argument is a context.Context; the analysis does not
// chase the callee's body. Test files are exempt — tests leak bounded
// goroutines into a process that is about to exit.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement needs a termination witness (context, WaitGroup.Done, or channel signal)",
	Run:  runGoroLeak,
}

func runGoroLeak(p *Pkg) []Finding {
	var out []Finding
	for _, f := range p.Files {
		if p.IsTestFile[f] {
			continue
		}
		// Walk per function declaration so the enclosing body is at
		// hand for bounded-channel lookups.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if !hasTerminationWitness(p, g, fd) {
					out = append(out, Finding{
						Pos:  p.Fset.Position(g.Pos()),
						Rule: "goroleak",
						Msg: "go statement has no termination witness: plumb a context, tie it to a WaitGroup (defer wg.Done()), " +
							"or signal completion on a channel (close on all paths, or send on a buffered channel)",
					})
				}
				return true
			})
		}
	}
	return out
}

func hasTerminationWitness(p *Pkg, g *ast.GoStmt, enclosing *ast.FuncDecl) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		// Named function or method value: witnessed only when the
		// caller hands it a context.
		for _, a := range g.Call.Args {
			if tv, ok := p.Info.Types[a]; ok && isContextType(tv.Type) {
				return true
			}
		}
		return false
	}
	if referencesContext(p, lit.Body) {
		return true
	}
	if callsWaitGroupDone(p, lit.Body) {
		return true
	}
	if rangesOverChannel(p, lit.Body) {
		return true
	}
	if closesChannelOnAllPaths(p, lit) {
		return true
	}
	if sendsOnBoundedChannel(p, lit.Body, enclosing) {
		return true
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func referencesContext(p *Pkg, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.Info.Uses[id]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar && isContextType(obj.Type()) {
				found = true
			}
		}
		return true
	})
	return found
}

func callsWaitGroupDone(p *Pkg, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(p, call)
		if f != nil && f.Name() == "Done" && funcPkgPath(f) == "sync" && isMethod(f) {
			found = true
		}
		return true
	})
	return found
}

func rangesOverChannel(p *Pkg, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if tv, ok := p.Info.Types[r.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				found = true
			}
		}
		return true
	})
	return found
}

// closesChannelOnAllPaths reports whether the literal closes some one
// channel object on every entry-to-exit path of its CFG (deferred
// closes cover all paths by construction).
func closesChannelOnAllPaths(p *Pkg, lit *ast.FuncLit) bool {
	// Gather candidate channels that are closed anywhere in the body.
	closed := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if obj := closedChannel(p, n); obj != nil {
			closed[obj] = true
		}
		return true
	})
	if len(closed) == 0 {
		return false
	}
	cfg := BuildCFG(lit.Body)
	for obj := range closed {
		if closeCoversAllPaths(p, cfg, obj) {
			return true
		}
	}
	return false
}

// closedChannel returns the channel object of a close(ch) call (or a
// deferred one), if n is one.
func closedChannel(p *Pkg, n ast.Node) types.Object {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	switch arg := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		return p.Info.Uses[arg]
	case *ast.SelectorExpr:
		return p.Info.Uses[arg.Sel]
	}
	return nil
}

// closeCoversAllPaths checks, on the CFG, that no entry-to-exit path
// avoids a block that closes obj. Defer blocks hang off Exit, so a
// deferred close covers every path automatically.
func closeCoversAllPaths(p *Pkg, cfg *CFG, obj types.Object) bool {
	closes := func(b *Block) bool {
		for _, n := range b.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if found {
					return false
				}
				if closedChannel(p, m) == obj {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		return false
	}
	// Deferred closes run after Exit on every path.
	for b := cfg.Exit; len(b.Succs) > 0; {
		b = b.Succs[0]
		if b.Kind != "defer" {
			break
		}
		if closes(b) {
			return true
		}
	}
	return !Escapes([]*Block{cfg.Entry}, closes, cfg.Exit)
}

// sendsOnBoundedChannel reports whether the literal sends on a channel
// that the enclosing function made with a constant non-zero buffer —
// the one-shot result-channel shape, where the send always completes.
func sendsOnBoundedChannel(p *Pkg, body *ast.BlockStmt, enclosing *ast.FuncDecl) bool {
	bounded := map[types.Object]bool{}
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				continue
			}
			fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fn.Name != "make" {
				continue
			}
			if _, isBuiltin := p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
				continue
			}
			if tv, ok := p.Info.Types[call.Args[1]]; !ok || tv.Value == nil || tv.Value.String() == "0" {
				continue
			}
			if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
						bounded[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(bounded) == 0 {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok {
			if bounded[p.Info.Uses[id]] {
				found = true
			}
		}
		return true
	})
	return found
}
