package analyze

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// statsPath is the one package allowed to build an atomic float cell by
// hand: it owns the BSF and publishes the (dist, pos) pair through a
// single pointer CAS.
const statsPath = "repro/internal/stats"

// AtomicPair enforces the best-so-far publication invariant (PR 5's
// hand-found race, now machine-checked): a (dist, pos) answer must be
// published as ONE atomic unit — internal/stats owns the packed cell —
// and nothing else may spread it across two atomic words, where a racing
// improvement can pair one update's distance with another's position.
//
// A lone atomic float cell is fine: a monotone pruning threshold
// (core's top-k), a metrics gauge, an ε-witness all publish a single
// independent value. The bug shape is a float-bits atomic PLUS a second
// atomic word published from the same function as if they were
// consistent.
//
// Rules (everywhere but internal/stats):
//
//  1. A function that stores/swaps/CAS-es math.Float*bits into one
//     atomic word and also stores to a DIFFERENT atomic word is
//     publishing a split pair.
//  2. A function that decodes math.Float*frombits from one atomic load
//     and performs another atomic integer load from a different word is
//     reading a split pair.
//  3. (everywhere) stats.BSF.Load must not be called twice in one
//     expression: the two loads can observe different thresholds inside
//     a single pruning decision (PR 4 fixed exactly this in the leaf
//     scans). Load once into a local instead.
var AtomicPair = &Analyzer{
	Name: "atomicpair",
	Doc:  "flags split publication of a (dist,pos)-style pair across two atomic words outside internal/stats, and double BSF.Load in one expression",
	Run:  runAtomicPair,
}

// atomicValueArg returns the index of the value operand being published
// by an atomic store-like call, or -1 if the call is not one.
func atomicValueArg(fn *types.Func) int {
	if fn == nil {
		return -1
	}
	// Package-level sync/atomic functions: Store*(addr, val),
	// Swap*(addr, new), CompareAndSwap*(addr, old, new).
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
		switch fn.Name() {
		case "StoreUint32", "StoreUint64", "StoreInt32", "StoreInt64", "StoreUintptr":
			return 1
		case "SwapUint32", "SwapUint64", "SwapInt32", "SwapInt64", "SwapUintptr":
			return 1
		case "CompareAndSwapUint32", "CompareAndSwapUint64", "CompareAndSwapInt32", "CompareAndSwapInt64", "CompareAndSwapUintptr":
			return 2
		}
		return -1
	}
	// Methods on the atomic integer cells: Store(val), Swap(new),
	// CompareAndSwap(old, new).
	for _, tn := range []string{"Uint32", "Uint64", "Int32", "Int64", "Uintptr"} {
		if isMethodOf(fn, "sync/atomic", tn, "Store") || isMethodOf(fn, "sync/atomic", tn, "Swap") {
			return 0
		}
		if isMethodOf(fn, "sync/atomic", tn, "CompareAndSwap") {
			return 1
		}
	}
	return -1
}

// isAtomicLoad reports whether the call loads from an atomic cell.
func isAtomicLoad(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Load" && fn.Name() != "LoadUint32" && fn.Name() != "LoadUint64" &&
		fn.Name() != "LoadInt32" && fn.Name() != "LoadInt64" && fn.Name() != "LoadUintptr" {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
		return true
	}
	for _, tn := range []string{"Uint32", "Uint64", "Int32", "Int64", "Uintptr"} {
		if isMethodOf(fn, "sync/atomic", tn, "Load") {
			return true
		}
	}
	return false
}

func isFloatBits(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isPkgFunc(fn, "math", "Float64bits") || isPkgFunc(fn, "math", "Float32bits")
}

func isFloatFromBits(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isPkgFunc(fn, "math", "Float64frombits") || isPkgFunc(fn, "math", "Float32frombits")
}

func runAtomicPair(pass *Pass) (any, error) {
	exempt := pass.Path == statsPath
	info := pass.TypesInfo

	// Pre-pass: idents assigned from math.Float*bits (bit patterns
	// awaiting publication) and from atomic loads (remembering which
	// word the value came from, so the read-side rule can tell two
	// loads of the same cell from a split pair).
	floatTaint := map[types.Object]bool{}
	loadTaint := map[types.Object]string{}

	// atomicTarget names the word an atomic call operates on: the
	// receiver of a cell method, or the address argument of the
	// package-level functions.
	atomicTarget := func(call *ast.CallExpr, fn *types.Func) string {
		if fn != nil && fn.Type().(*types.Signature).Recv() != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return exprString(pass.Fset, sel.X)
			}
		}
		if len(call.Args) > 0 {
			return exprString(pass.Fset, call.Args[0])
		}
		return ""
	}

	Preorder(pass.Files, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
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
			if isFloatBits(info, call) {
				floatTaint[obj] = true
			} else if fn := calleeFunc(info, call); isAtomicLoad(fn) {
				loadTaint[obj] = atomicTarget(call, fn)
			}
		}
	})

	derivesFloatBits := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isFloatBits(info, x) {
					found = true
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil && floatTaint[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// loadTargetOf resolves which atomic word a frombits argument was
	// loaded from, directly or through a local.
	loadTargetOf := func(e ast.Expr) (string, bool) {
		target, found := "", false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(info, x); isAtomicLoad(fn) {
					target, found = atomicTarget(x, fn), true
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil {
					if t, ok := loadTaint[obj]; ok {
						target, found = t, true
					}
				}
			}
			return !found
		})
		return target, found
	}

	if !exempt {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				type site struct {
					target    string
					floatBits bool
					pos       token.Pos
				}
				var stores, decodes []site
				loadTargets := map[string]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(info, call)
					if i := atomicValueArg(fn); i >= 0 && i < len(call.Args) {
						stores = append(stores, site{atomicTarget(call, fn), derivesFloatBits(call.Args[i]), call.Pos()})
						return true
					}
					if isAtomicLoad(fn) {
						loadTargets[atomicTarget(call, fn)] = true
						return true
					}
					if isFloatFromBits(info, call) && len(call.Args) == 1 {
						if t, ok := loadTargetOf(call.Args[0]); ok {
							decodes = append(decodes, site{target: t, pos: call.Pos()})
						}
					}
					return true
				})
				storeTargets := map[string]bool{}
				for _, s := range stores {
					storeTargets[s.target] = true
				}
				for _, s := range stores {
					if s.floatBits && len(storeTargets) > 1 {
						pass.Reportf(s.pos, "atomic publication of float bits alongside a second atomic word: a racing update can pair one answer's dist with another's pos; publish one packed cell (see stats.BSF)")
					}
				}
				for _, d := range decodes {
					for t := range loadTargets {
						if t != d.target {
							pass.Reportf(d.pos, "decoding float bits from an atomic load alongside a second atomic load: the two words can come from different updates; read one packed cell (see stats.BSF)")
							break
						}
					}
				}
			}
		}
	}

	// Rule 3: two BSF.Load calls inside one decision expression.
	checkExpr := func(e ast.Expr) {
		if e == nil {
			return
		}
		byRecv := map[string][]token.Pos{}
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isMethodOf(calleeFunc(info, call), statsPath, "BSF", "Load") {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					key := exprString(pass.Fset, sel.X)
					byRecv[key] = append(byRecv[key], call.Pos())
				}
			}
			return true
		})
		for _, positions := range byRecv {
			if len(positions) > 1 {
				pass.Reportf(positions[1], "BSF.Load called %d times in one expression: the loads can observe different thresholds; load once into a local", len(positions))
			}
		}
	}
	Preorder(pass.Files, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.IfStmt:
			checkExpr(s.Cond)
		case *ast.ForStmt:
			checkExpr(s.Cond)
		case *ast.SwitchStmt:
			checkExpr(s.Tag)
		case *ast.ExprStmt:
			checkExpr(s.X)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				checkExpr(r)
			}
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				checkExpr(r)
			}
		}
	})
	return nil, nil
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}
