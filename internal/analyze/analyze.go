// Package analyze is messi-vet's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list` and the standard library's source importer.
//
// The repository's correctness rests on invariants the compiler cannot
// see — the best-so-far (dist, pos) pair must be published atomically
// together, RCU generations are immutable after the atomic.Pointer swap,
// acked appends hit the WAL before the delta buffer. The analyzers in
// this package (see Analyzers) machine-check the rules that CAN be
// checked syntactically/typewise, so a reviewer never has to.
//
// The API mirrors go/analysis deliberately: if the x/tools module ever
// becomes available to this build, each Analyzer ports mechanically.
// Two extensions exist because the one driver, cmd/messi-vet, is
// whole-program rather than unit-at-a-time:
//
//   - Analyzer.Finish runs once after every package's Run completed and
//     sees all per-package results, enabling cross-package rules (is a
//     failpoint's package linked into the crash matrix? is a metric name
//     always registered with one kind?). Every messi-vet run runs it,
//     over the packages Load returned, test files included.
//
//   - Diagnostics can be suppressed with a `//messi-vet:ignore <name>
//     <reason>` comment on the flagged line or the line directly above
//     it. The reason is mandatory by convention (reviewed, not parsed).
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	// Lowercase, no spaces.
	Name string

	// Doc is the one-paragraph description shown by `messi-vet -list`.
	Doc string

	// Run applies the analyzer to one package and returns an optional
	// per-package result for Finish to aggregate.
	Run func(*Pass) (any, error)

	// Finish, if non-nil, runs once after all packages were analyzed.
	// It receives the suite of per-package results and reports
	// whole-program diagnostics (cross-package rules).
	Finish func(*Suite)
}

// A Pass provides one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path is the package's import path as reported by go list. Test
	// variants (in-package _test.go files compiled in, or external
	// _test packages) keep the base path so path-keyed exemptions
	// apply to them too.
	Path string

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Suite is handed to Analyzer.Finish: every per-package result plus
// the module-local import graph.
type Suite struct {
	Fset *token.FileSet

	// Results holds one entry per analyzed package, in load order.
	Results []PassResult

	// Graph maps a package path to the paths it imports (module-local
	// and standard library alike, test-only imports included). An
	// external test package's edges are merged into its base path's
	// list.
	Graph map[string][]string

	report func(Diagnostic)
}

// Reportf records a whole-program diagnostic at pos.
func (s *Suite) Reportf(pos token.Pos, format string, args ...any) {
	s.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PassResult pairs a package path with what the analyzer's Run returned
// for it.
type PassResult struct {
	Path   string
	Result any
}

// Reaches reports whether to is reachable from from over the import
// graph (reflexively: a package reaches itself).
func (s *Suite) Reaches(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dep := range s.Graph[p] {
			if dep == to {
				return true
			}
			if !seen[dep] {
				seen[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	return false
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Run applies every analyzer to every package, runs Finish hooks, drops
// suppressed diagnostics, and returns the rest sorted by position. The
// error aggregates analyzer-run failures (not diagnostics).
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var firstErr error
	graph := map[string][]string{}
	for _, pkg := range pkgs {
		graph[pkg.Path] = mergeUnique(graph[pkg.Path], pkg.Imports)
	}
	for _, a := range analyzers {
		suite := &Suite{Fset: fset, Graph: graph}
		suite.report = func(d Diagnostic) {
			d.Analyzer = a.Name
			diags = append(diags, d)
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Path:      pkg.Path,
				report:    suite.report,
			}
			res, err := a.Run(pass)
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
			suite.Results = append(suite.Results, PassResult{Path: pkg.Path, Result: res})
		}
		if a.Finish != nil {
			a.Finish(suite)
		}
	}
	diags = filterIgnored(fset, pkgs, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, firstErr
}

func mergeUnique(dst, src []string) []string {
	seen := map[string]bool{}
	for _, s := range dst {
		seen[s] = true
	}
	for _, s := range src {
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}

// Analyzers returns the full messi-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicPair,
		RCUPublish,
		ErrWrap,
		FaultSite,
		MetricName,
	}
}
