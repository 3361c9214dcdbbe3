package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Annotation markers recognized in function doc comments. hotMarker
// declares an allocation-free root for allochot: the function and
// everything statically reachable from it must not allocate. coldMarker
// cuts the traversal: a call to a cold function is exempt — including
// the allocations its arguments perform — because the callee is a
// deliberate slow path (cache miss, error path, once-per-version work).
const (
	hotMarker  = "p4p:hotpath"
	coldMarker = "p4p:coldpath"
)

// CallKind distinguishes how a call site transfers control.
type CallKind int

const (
	// CallSync is an ordinary synchronous call.
	CallSync CallKind = iota
	// CallGo is the function called by a go statement.
	CallGo
	// CallDefer is the function called by a defer statement.
	CallDefer
)

// CallSite is one statically resolved call from a module function to
// another module function. Calls into the standard library and dynamic
// calls (interface methods, function values) are not edges; analyzers
// that care about them classify the call expression at its site.
type CallSite struct {
	Caller    *FuncInfo
	CalleeKey string
	Call      *ast.CallExpr
	Kind      CallKind
	// InFuncLit marks calls made inside a function literal nested in
	// the caller; lockheld's interprocedural pass skips these (the
	// literal may run on another goroutine or at defer time).
	InFuncLit bool
}

// FuncInfo is one declared function or method in the module.
type FuncInfo struct {
	// Key is types.Func.FullName(), unique and stable across the
	// directly-typechecked and importer-loaded views of a package.
	Key  string
	Pkg  *Pkg
	Decl *ast.FuncDecl
	Hot  bool // //p4p:hotpath in the doc comment
	Cold bool // //p4p:coldpath in the doc comment
	// Calls lists this function's resolved module-local call sites in
	// source order.
	Calls []*CallSite
}

// Module is the whole-module view consumed by interprocedural
// analyzers: every loaded unit plus a static call graph over all
// declared functions, keyed so that the same function reached through
// different type-checking universes (checked directly vs. pulled in by
// the source importer) collapses to one node.
type Module struct {
	Pkgs  []*Pkg
	Funcs map[string]*FuncInfo
	// callers indexes call sites by callee key.
	callers map[string][]*CallSite
	// localPkgs holds the import paths of the loaded units (the _test
	// suffix stripped), so analyzers can ask whether a types.Func is
	// declared in this module rather than the standard library.
	localPkgs map[string]bool
}

// NewModule builds the call graph over the given units.
func NewModule(pkgs []*Pkg) *Module {
	m := &Module{
		Pkgs:      pkgs,
		Funcs:     map[string]*FuncInfo{},
		callers:   map[string][]*CallSite{},
		localPkgs: map[string]bool{},
	}
	for _, p := range pkgs {
		m.localPkgs[strings.TrimSuffix(p.ImportPath, "_test")] = true
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:  obj.FullName(),
					Pkg:  p,
					Decl: fd,
					Hot:  hasMarker(fd.Doc, hotMarker),
					Cold: hasMarker(fd.Doc, coldMarker),
				}
				// A unit and its compiled sibling can both declare a key
				// (in-package tests re-check the package); first wins, and
				// iteration over sorted units keeps that deterministic.
				if m.Funcs[fi.Key] == nil {
					m.Funcs[fi.Key] = fi
				}
			}
		}
	}
	for _, fi := range m.Funcs {
		m.collectCalls(fi)
		for _, cs := range fi.Calls {
			m.callers[cs.CalleeKey] = append(m.callers[cs.CalleeKey], cs)
		}
	}
	return m
}

// IsLocal reports whether a types.Func is declared by a package of
// this module.
func (m *Module) IsLocal(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	return m.localPkgs[strings.TrimSuffix(f.Pkg().Path(), "_test")]
}

// Callers returns the call sites targeting the function with key.
func (m *Module) Callers(key string) []*CallSite { return m.callers[key] }

// collectCalls resolves fi's outgoing static calls to module
// functions.
func (m *Module) collectCalls(fi *FuncInfo) {
	var litDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(n.Body, walk)
			litDepth--
			return false
		case *ast.GoStmt:
			m.addCall(fi, n.Call, CallGo, litDepth > 0)
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			ast.Inspect(n.Call.Fun, walk)
			return false
		case *ast.DeferStmt:
			m.addCall(fi, n.Call, CallDefer, litDepth > 0)
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			ast.Inspect(n.Call.Fun, walk)
			return false
		case *ast.CallExpr:
			m.addCall(fi, n, CallSync, litDepth > 0)
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, walk)
}

func (m *Module) addCall(fi *FuncInfo, call *ast.CallExpr, kind CallKind, inLit bool) {
	f := calleeFunc(fi.Pkg, call)
	if f == nil || !m.IsLocal(f) {
		return
	}
	if sel, ok := m.selectionFor(fi.Pkg, call); ok && sel.Kind() == types.MethodVal {
		if types.IsInterface(sel.Recv().Underlying()) {
			// Interface dispatch: no static edge. allochot flags these
			// at the call site in hot code instead of guessing targets.
			return
		}
	}
	fi.Calls = append(fi.Calls, &CallSite{
		Caller:    fi,
		CalleeKey: f.FullName(),
		Call:      call,
		Kind:      kind,
		InFuncLit: inLit,
	})
}

func (m *Module) selectionFor(p *Pkg, call *ast.CallExpr) (*types.Selection, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s, ok := p.Info.Selections[sel]
	return s, ok
}

// hasMarker reports whether a doc comment contains the given
// annotation on a line of its own (modulo spaces).
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// shortFuncKey strips the module path from a FullName-style key for
// readable diagnostics: "p4p/internal/portal.(*Handler).cacheFor" ->
// "portal.(*Handler).cacheFor".
func shortFuncKey(key string) string {
	shorten := func(qual string) string {
		if i := strings.LastIndexByte(qual, '/'); i >= 0 {
			return qual[i+1:]
		}
		return qual
	}
	// Method keys look like "(*pkg/path.Recv).Name" or
	// "(pkg/path.Recv).Name"; function keys like "pkg/path.Name".
	if strings.HasPrefix(key, "(") {
		end := strings.IndexByte(key, ')')
		if end < 0 {
			return key
		}
		recv := key[1:end]
		star := ""
		if strings.HasPrefix(recv, "*") {
			star, recv = "*", recv[1:]
		}
		if i := strings.LastIndexByte(recv, '.'); i >= 0 {
			return shorten(recv[:i]) + ".(" + star + recv[i+1:] + ")" + key[end+1:]
		}
		return key
	}
	return shorten(key)
}
