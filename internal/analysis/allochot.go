package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocHot enforces the module's allocation-free hot paths. Functions
// annotated //p4p:hotpath are roots; everything statically reachable
// from them through the module call graph inherits the obligation,
// except callees annotated //p4p:coldpath (deliberate slow paths:
// cache misses, error envelopes, once-per-version recomputes), whose
// entire call expressions — argument evaluation included — are exempt.
//
// Inside hot code the analyzer flags the allocation vocabulary the
// AllocsPerRun tests keep catching one entry point at a time:
//
//   - append growth into a plain local that was not pre-sized with a
//     3-arg make or derived by reslicing (appends into struct fields
//     are the amortized reusable-buffer idiom and stay silent);
//   - map and slice composite literals, and composite literals that
//     escape via & (a value struct literal on the stack is free);
//   - function literals that capture variables (a non-capturing
//     literal compiles to a static function);
//   - interface boxing: a concrete non-pointer-shaped value passed to
//     an interface parameter or converted to an interface type;
//   - any fmt.* call, and string concatenation not folded at compile
//     time;
//   - dynamic dispatch the call graph cannot follow: calls through
//     function values and through module-declared interfaces (calls
//     via standard-library interfaces, e.g. http.ResponseWriter, are
//     the platform's contract and stay silent).
//
// Allocations inside panic(...) arguments are exempt: a panicking path
// is by definition not the hot path.
var AllocHot = &Analyzer{
	Name:      "allochot",
	Doc:       "code reachable from //p4p:hotpath functions must not allocate",
	RunModule: runAllocHot,
}

func runAllocHot(m *Module) []Finding {
	var seeds []string
	for k, fi := range m.Funcs {
		if fi.Hot {
			seeds = append(seeds, k)
		}
	}
	sort.Strings(seeds)
	less := func(a, b string) bool { return a < b }
	parent := Reachable(seeds, func(k string) []string {
		fi := m.Funcs[k]
		if fi == nil || fi.Cold {
			return nil
		}
		var out []string
		for _, cs := range fi.Calls {
			if cs.Kind == CallGo {
				// A goroutine spawned from hot code runs on its own
				// schedule; it is not part of the hot path.
				continue
			}
			callee := m.Funcs[cs.CalleeKey]
			if callee == nil || callee.Cold {
				continue
			}
			out = append(out, cs.CalleeKey)
		}
		return out
	}, less)

	keys := make([]string, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Finding
	for _, k := range keys {
		fi := m.Funcs[k]
		if fi == nil || fi.Cold {
			continue
		}
		s := &allocScanner{m: m, fi: fi, why: hotChain(m, parent, k)}
		s.collectPresized()
		ast.Inspect(fi.Decl.Body, s.walk)
		out = append(out, s.out...)
	}
	return out
}

// hotChain renders why a function is hot: either its own annotation,
// or the discovery chain back to an annotated root.
func hotChain(m *Module, parent map[string]string, k string) string {
	if fi := m.Funcs[k]; fi != nil && fi.Hot {
		return "marked //p4p:hotpath"
	}
	var chain []string
	for cur := k; ; cur = parent[cur] {
		chain = append(chain, shortFuncKey(cur))
		if parent[cur] == cur {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return "hot via " + strings.Join(chain, " -> ")
}

type allocScanner struct {
	m   *Module
	fi  *FuncInfo
	why string
	// presized holds locals initialized from a 3-arg make or a slice
	// expression; appends into them reuse capacity by design.
	presized map[types.Object]bool
	// handled marks nodes already reported (or deliberately silenced)
	// by an ancestor, e.g. the composite literal under an &.
	handled map[ast.Node]bool
	out     []Finding
}

func (s *allocScanner) report(pos token.Pos, msg string) {
	s.out = append(s.out, Finding{
		Pos:  s.fi.Pkg.Fset.Position(pos),
		Rule: "allochot",
		Msg:  fmt.Sprintf("%s in hot path (%s)", msg, s.why),
	})
}

// collectPresized records locals whose appends are capacity reuse, not
// growth: x := make([]T, n, c) and every reslicing x := buf[:0].
func (s *allocScanner) collectPresized() {
	s.presized = map[types.Object]bool{}
	s.handled = map[ast.Node]bool{}
	info := s.fi.Pkg.Info
	mark := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
		case *ast.CallExpr:
			fn, ok := ast.Unparen(r.Fun).(*ast.Ident)
			if !ok || fn.Name != "make" || len(r.Args) != 3 {
				return
			}
			if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
				return
			}
		default:
			return
		}
		if obj := info.Defs[id]; obj != nil {
			s.presized[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			s.presized[obj] = true
		}
	}
	ast.Inspect(s.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					mark(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					mark(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
}

func (s *allocScanner) walk(n ast.Node) bool {
	if n != nil && s.handled[n] {
		return false
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		return s.call(n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				s.report(n.Pos(), fmt.Sprintf("&%s escapes to the heap", typeLabel(s.fi.Pkg, cl)))
				s.handled[cl] = true
			}
		}
	case *ast.CompositeLit:
		s.composite(n)
	case *ast.FuncLit:
		if capt := s.captures(n); capt != "" {
			s.report(n.Pos(), fmt.Sprintf("closure captures %s and allocates", capt))
		}
	case *ast.BinaryExpr:
		s.concat(n)
	}
	return true
}

func (s *allocScanner) composite(n *ast.CompositeLit) {
	tv, ok := s.fi.Pkg.Info.Types[n]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		s.report(n.Pos(), "map literal allocates")
	case *types.Slice:
		s.report(n.Pos(), "slice literal allocates")
	}
	// Value struct and array literals live on the stack: silent.
}

func (s *allocScanner) concat(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	info := s.fi.Pkg.Info
	tv, ok := info.Types[n]
	if !ok || tv.Value != nil { // constant-folded concat is free
		return
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsString == 0 {
		return
	}
	// Report only the outermost + of a chain.
	for _, sub := range []ast.Expr{n.X, n.Y} {
		if be, ok := ast.Unparen(sub).(*ast.BinaryExpr); ok && be.Op == token.ADD {
			s.handled[be] = true
		}
	}
	s.report(n.Pos(), "string concatenation allocates")
}

// call classifies one call expression; the return value feeds
// ast.Inspect (false prunes the subtree for exempt calls).
func (s *allocScanner) call(n *ast.CallExpr) bool {
	p := s.fi.Pkg
	// Type conversions: only interface conversions allocate.
	if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) && len(n.Args) == 1 {
			if at, ok := p.Info.Types[n.Args[0]]; ok && boxes(at.Type) {
				s.report(n.Pos(), "conversion to interface boxes its operand")
			}
		}
		return true
	}
	// Builtins: append may grow, panic exempts its arguments, the rest
	// are free or covered elsewhere (a bare 2-arg make returning a
	// buffer that is then appended into is caught at the append).
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "panic":
				return false
			case "append":
				s.append_(n)
			}
			return true
		}
	}
	f := calleeFunc(p, n)
	if f == nil {
		// No static callee and not a builtin or conversion: a call
		// through a function value.
		s.report(n.Pos(), "dynamic call through a function value; the hot-path call graph cannot follow it")
		return true
	}
	if s.m.IsLocal(f) {
		if sel, ok := s.m.selectionFor(p, n); ok && sel.Kind() == types.MethodVal &&
			types.IsInterface(sel.Recv().Underlying()) {
			s.report(n.Pos(), fmt.Sprintf("dynamic call through interface method %s; the hot-path call graph cannot follow it", shortFuncKey(f.FullName())))
			s.boxingCheck(n)
			return true
		}
		if callee := s.m.Funcs[f.FullName()]; callee != nil && callee.Cold {
			// The whole cut call — argument evaluation included — is
			// the cold path's cost.
			return false
		}
		s.boxingCheck(n)
		return true
	}
	// Standard library (or other out-of-module) callee.
	if funcPkgPath(f) == "fmt" {
		s.report(n.Pos(), "fmt."+f.Name()+" allocates (formatting state and boxed arguments)")
		return true
	}
	if sel, ok := s.m.selectionFor(p, n); ok && sel.Kind() == types.MethodVal &&
		types.IsInterface(sel.Recv().Underlying()) {
		// Calls via stdlib interfaces (http.ResponseWriter.Write,
		// io.Writer) are the platform contract; trust them.
		return true
	}
	s.boxingCheck(n)
	return true
}

// append_ flags append calls that can grow their destination: the
// destination is a plain local that was not pre-sized. Appends into
// struct fields or elements are the reusable amortized-buffer idiom
// (h.ev = append(h.ev, e)) and stay silent, as do appends into locals
// born from a 3-arg make or a reslice (buf[:0]).
func (s *allocScanner) append_(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	dst, ok := ast.Unparen(n.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := s.fi.Pkg.Info.Uses[dst]
	if obj == nil || s.presized[obj] {
		return
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return
	}
	s.report(n.Pos(), fmt.Sprintf("append into %s may grow; pre-size it with a 3-arg make or reslice a reusable buffer", dst.Name))
}

// boxingCheck flags concrete non-pointer-shaped arguments passed to
// interface parameters.
func (s *allocScanner) boxingCheck(n *ast.CallExpr) {
	p := s.fi.Pkg
	tv, ok := p.Info.Types[n.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if n.Ellipsis.IsValid() {
				continue // the slice is passed through, nothing boxes
			}
			pt = params.At(params.Len() - 1).Type().Underlying().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at, ok := p.Info.Types[arg]
		if !ok || at.IsNil() || !boxes(at.Type) {
			continue
		}
		s.report(arg.Pos(), fmt.Sprintf("argument %s boxes into interface parameter", types.ExprString(arg)))
	}
}

// boxes reports whether storing a value of type t in an interface
// allocates: pointer-shaped types (pointers, channels, maps, funcs,
// unsafe pointers) and interfaces themselves fit in the word; anything
// else is copied to the heap.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer && u.Kind() != types.UntypedNil
	}
	return true
}

// captures names the first variable a function literal closes over, or
// "" when the literal is non-capturing (and thus allocation-free).
func (s *allocScanner) captures(lit *ast.FuncLit) string {
	info := s.fi.Pkg.Info
	declPos, declEnd := s.fi.Decl.Pos(), s.fi.Decl.End()
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but
		// outside the literal itself (package-level vars are shared,
		// not captured).
		if v.Pos() >= declPos && v.Pos() < declEnd &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}

// typeLabel renders a composite literal's type for a finding message.
func typeLabel(p *Pkg, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return types.ExprString(cl.Type)
	}
	if tv, ok := p.Info.Types[cl]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "composite literal"
}
