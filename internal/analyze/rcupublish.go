package analyze

import (
	"go/ast"
	"go/types"
)

// RCUPublish enforces the read-copy-update discipline used by the live
// index's view pointer — the one place an index generation is published;
// the engine is handed the view per query and holds none — and by the
// server's index pointer: a value obtained from an atomic.Pointer (or
// atomic.Value) Load is a published generation and is immutable — readers
// hold it without locks. Mutating it races every concurrent query. The correct
// pattern is copy-on-write: build a fresh value, then Store/Swap/CAS it
// in.
//
// The analyzer taints the result of every `.Load()` on a sync/atomic
// Pointer or Value, propagates the taint through aliasing assignments
// that preserve sharing (pointer, slice, map and channel typed
// expressions), and flags any assignment or ++/-- whose destination is
// reached through a tainted value. Writes to atomic fields *inside* a
// published value go through method calls (Add, Store), not
// assignments, so intentionally-shared counters do not trip the rule.
var RCUPublish = &Analyzer{
	Name: "rcupublish",
	Doc:  "flags writes through values obtained from an atomic.Pointer/atomic.Value Load: published RCU generations are immutable after the swap",
	Run:  runRCUPublish,
}

// isRCULoad reports whether the call is atomic.Pointer[T].Load or
// atomic.Value.Load.
func isRCULoad(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isMethodOf(fn, "sync/atomic", "Pointer", "Load") ||
		isMethodOf(fn, "sync/atomic", "Value", "Load")
}

// sharesStorage reports whether an assignment of a value of type t to a
// new variable keeps referring to the same underlying storage.
func sharesStorage(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

func runRCUPublish(pass *Pass) (any, error) {
	info := pass.TypesInfo

	// tainted holds objects (variables) known to alias a Load result.
	// A single forward pass in source order is enough for the
	// straight-line `v := p.Load(); ...; v.f = x` shape this guards
	// against; back-edges would only cause misses, not false positives.
	tainted := map[types.Object]bool{}

	// aliased reports whether e's VALUE aliases a loaded generation —
	// value-copy semantics: selecting or indexing out a plain struct
	// value breaks the alias, while pointers, slices, maps, channels
	// and interfaces keep referring to the published storage.
	var aliased func(e ast.Expr) bool
	aliased = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return isRCULoad(info, x)
		case *ast.Ident:
			obj := info.Uses[x]
			return obj != nil && tainted[obj]
		case *ast.TypeAssertExpr:
			return aliased(x.X)
		case *ast.SelectorExpr, *ast.IndexExpr:
			if tv, ok := info.Types[e]; ok && !sharesStorage(tv.Type) {
				return false
			}
			switch y := x.(type) {
			case *ast.SelectorExpr:
				return aliased(y.X)
			case *ast.IndexExpr:
				return aliased(y.X)
			}
		case *ast.StarExpr:
			// *v in an RHS context is a value copy.
			return false
		}
		return false
	}

	// containerAliases reports whether the storage LOCATION denoted by
	// e lies inside a published generation — reference semantics: a
	// field of a published struct is published whatever its type.
	var containerAliases func(e ast.Expr) bool
	containerAliases = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return isRCULoad(info, x)
		case *ast.Ident:
			obj := info.Uses[x]
			return obj != nil && tainted[obj]
		case *ast.TypeAssertExpr:
			return containerAliases(x.X)
		case *ast.SelectorExpr:
			return containerAliases(x.X)
		case *ast.IndexExpr:
			// An element of x.X lives in published storage if the
			// slice/map VALUE x.X aliases it (a local array copy does
			// not), or if x.X is itself a location inside one (an
			// array field of a published struct).
			return aliased(x.X) || containerAliases(x.X)
		case *ast.StarExpr:
			return aliased(x.X)
		}
		return false
	}

	// writeThroughTaint reports whether an assignment destination
	// mutates published storage. Rebinding a variable itself is fine.
	writeThroughTaint := func(dst ast.Expr) bool {
		switch x := ast.Unparen(dst).(type) {
		case *ast.SelectorExpr:
			return containerAliases(x.X)
		case *ast.IndexExpr:
			return aliased(x.X) || containerAliases(x.X)
		case *ast.StarExpr:
			return aliased(x.X)
		}
		return false
	}

	report := func(pos ast.Node) {
		pass.Reportf(pos.Pos(), "write through a value obtained from an atomic Load: published RCU generations are immutable; build a new value and Store it")
	}

	Preorder(pass.Files, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if writeThroughTaint(lhs) {
					report(lhs)
				}
			}
			// Propagate (and clear) taint for v := p.Load() / v = alias
			// AFTER checking the write: in `v.f = x` the LHS refers to
			// the pre-assignment binding.
			if len(s.Lhs) == len(s.Rhs) {
				for i, rhs := range s.Rhs {
					id, ok := s.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if aliased(rhs) {
						tainted[obj] = true
					} else {
						// Rebinding to a fresh value clears the taint
						// (forward flow; loops may under-approximate).
						delete(tainted, obj)
					}
				}
			}
		case *ast.IncDecStmt:
			if writeThroughTaint(s.X) {
				report(s.X)
			}
		}
	})
	return nil, nil
}
