package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the *types.Func a call expression statically
// invokes: a package-level function, a method (through the selection),
// or nil for builtins, conversions, and calls of stored function
// values. A call into an instantiated generic resolves to the generic
// declaration.
func calleeFunc(p *Pkg, call *ast.CallExpr) *types.Func {
	var f *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			f, _ = sel.Obj().(*types.Func)
		} else {
			// Package-qualified call (pkg.Func).
			f, _ = p.Info.Uses[fun.Sel].(*types.Func)
		}
	}
	if f == nil {
		return nil
	}
	return f.Origin()
}

// funcPkgPath returns the import path of the package declaring f, or
// "" when there is none (builtins, error.Error).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isMethod reports whether f has a receiver.
func isMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
