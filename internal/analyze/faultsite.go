package analyze

import (
	"go/ast"
	"go/token"
	"regexp"
)

// faultPath is the failpoint framework package.
const faultPath = "repro/internal/fault"

// FaultSite keeps the crash-recovery matrix honest. The matrix
// (crash_test.go) arms every point returned by fault.Names(), so a
// failpoint is covered exactly when its package is linked into a test
// binary that calls fault.Names(). A Register in a package outside
// that import graph — or a Register that only runs lazily inside some
// function — silently escapes the matrix.
//
// Rules:
//
//  1. fault.Register takes a constant, dotted lowercase name
//     ("layer.site" style), so Names() stays sorted and greppable.
//  2. Register must run at package-level var initialization, not inside
//     a function: lazy registration is invisible to fault.Names() until
//     the site first executes, which on a fresh boot is after the
//     matrix enumerated the points.
//  3. (whole-program) Every fault.Arm with a constant name must name a
//     point some package Registers — an Arm typo fails only at runtime,
//     in whatever test happens to exercise it.
//  4. (whole-program) Every Registering package must be reachable from
//     a package that calls fault.Names() (the crash matrix), imports
//     included transitively, so new failpoints cannot escape coverage.
var FaultSite = &Analyzer{
	Name:   "faultsite",
	Doc:    "checks fault.Register discipline: constant dotted names, package-level registration, Arm names resolve, and every registering package is reachable from a fault.Names() crash matrix",
	Run:    runFaultSite,
	Finish: finishFaultSite,
}

// faultNameRE is the site-naming convention: at least two dotted
// lowercase segments, e.g. "wal.append.write".
var faultNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)+$`)

// faultSiteFacts is the per-package result aggregated by Finish.
type faultSiteFacts struct {
	registers  map[string]token.Pos // point name -> first Register site
	arms       map[string]token.Pos // constant-name Arm sites
	callsNames bool                 // package calls fault.Names() (a crash matrix)
}

func runFaultSite(pass *Pass) (any, error) {
	info := pass.TypesInfo
	facts := &faultSiteFacts{
		registers: map[string]token.Pos{},
		arms:      map[string]token.Pos{},
	}
	if pass.Path == faultPath {
		// The framework itself registers nothing and its tests Arm
		// synthetic names; exempt it.
		return facts, nil
	}

	// Pre-compute which Register calls sit inside function bodies.
	inFunc := map[*ast.CallExpr]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					inFunc[call] = true
				}
				return true
			})
		}
	}

	Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(info, call)
		switch {
		case isPkgFunc(fn, faultPath, "Register") && len(call.Args) == 1:
			name, constant := constString(info, call.Args[0])
			if !constant {
				pass.Reportf(call.Args[0].Pos(), "fault.Register with a non-constant name: the crash matrix cannot be audited for it")
				return
			}
			if !faultNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "failpoint name %q does not match the layer.site convention (%s)", name, faultNameRE)
			}
			if inFunc[call] {
				pass.Reportf(call.Pos(), "fault.Register inside a function body: lazy registration escapes fault.Names() until the site first runs; register in a package-level var")
			}
			if _, ok := facts.registers[name]; !ok {
				facts.registers[name] = call.Pos()
			}
		case isPkgFunc(fn, faultPath, "Arm") && len(call.Args) >= 1:
			if name, constant := constString(info, call.Args[0]); constant {
				if _, ok := facts.arms[name]; !ok {
					facts.arms[name] = call.Args[0].Pos()
				}
			}
		case isPkgFunc(fn, faultPath, "Names"):
			facts.callsNames = true
		}
	})
	return facts, nil
}

func finishFaultSite(s *Suite) {
	registered := map[string]bool{}
	var matrixPkgs []string
	for _, r := range s.Results {
		facts, ok := r.Result.(*faultSiteFacts)
		if !ok {
			continue
		}
		for name := range facts.registers {
			registered[name] = true
		}
		if facts.callsNames {
			matrixPkgs = append(matrixPkgs, r.Path)
		}
	}
	for _, r := range s.Results {
		facts, ok := r.Result.(*faultSiteFacts)
		if !ok {
			continue
		}
		for name, pos := range facts.arms {
			if !registered[name] {
				s.Reportf(pos, "fault.Arm of unregistered point %q: no fault.Register in the analyzed packages uses this name", name)
			}
		}
		if len(matrixPkgs) == 0 {
			continue
		}
		for name, pos := range facts.registers {
			covered := false
			for _, m := range matrixPkgs {
				if s.Reaches(m, r.Path) {
					covered = true
					break
				}
			}
			if !covered {
				s.Reportf(pos, "failpoint %q is registered in a package not imported by any crash matrix (fault.Names() caller): it will never be armed by the coverage tests", name)
			}
		}
	}
}
