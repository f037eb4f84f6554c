package analyze

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Preorder calls f for every node in every file, in source order.
func Preorder(files []*ast.File, f func(ast.Node)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// calleeFunc resolves the *types.Func a call invokes (package function
// or method), or nil for calls through function values, built-ins and
// type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Fn(...).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the named package-level function of
// the given import path.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil &&
		fn.Pkg().Path() == pkgPath && fn.Type().(*types.Signature).Recv() == nil
}

// isMethodOf reports whether fn is the named method on the named type
// of the given import path (generic origin: atomic.Pointer[T] methods
// match typeName "Pointer"). Pointer receivers match too.
func isMethodOf(fn *types.Func, pkgPath, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return namedTypeIs(recv.Type(), pkgPath, typeName)
}

// namedTypeIs reports whether t (possibly behind pointers and generic
// instantiation) is the named type pkgPath.typeName.
func namedTypeIs(t types.Type, pkgPath, typeName string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// constString returns the compile-time string value of e, if it has one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error (and is not the
// untyped nil).
func isErrorType(t types.Type) bool {
	if t == nil || t == types.Typ[types.Invalid] {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return types.Implements(t, errorType)
}

// rootIdent returns the identifier at the base of a selector / index /
// dereference chain: rootIdent(a.b[i].c) == a. Calls and other
// non-addressable roots return nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
