package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, parsed and type-checked package ready for
// analysis. An external _test package is an extra Package with the same
// Path as the package it tests.
type Package struct {
	Path    string // import path (test variants keep the base path)
	Name    string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Imports []string
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// Load resolves patterns with `go list`, parses every matched package
// together with its in-package _test.go files, plus its external _test
// package as a second Package, and type-checks them against
// dependencies resolved from source. The faultsite Finish rules need
// the test files: every fault.Arm call and the crash matrix's
// fault.Names() call live in tests. Load returns the packages in list
// order (external test packages directly after their base package).
//
// Dependency type-checking uses the standard library's source importer,
// which shells out to the go command for module-aware path resolution;
// Load therefore must run with the process inside the module (any
// subdirectory works).
func Load(patterns ...string) ([]*Package, *token.FileSet, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	// Dependencies are type-checked from source. NewImporter disables
	// cgo, selecting the pure-Go variants of std packages like net and
	// keeping the load hermetic; the repository itself has no cgo.
	imp := NewImporter(fset)

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || lp.Name == "" {
			continue
		}
		files := lp.GoFiles
		imports := lp.Imports
		if len(lp.TestGoFiles) > 0 {
			files = append(append([]string{}, files...), lp.TestGoFiles...)
			imports = mergeUnique(append([]string{}, imports...), lp.TestImports)
		}
		pkg, err := checkFiles(fset, imp, lp.Dir, lp.ImportPath, lp.Name, files, imports)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
		if len(lp.XTestGoFiles) > 0 {
			xt, err := checkFiles(fset, imp, lp.Dir, lp.ImportPath, lp.Name+"_test", lp.XTestGoFiles, lp.XTestImports)
			if err != nil {
				return nil, nil, err
			}
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, fset, nil
}

func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %w", patterns, err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

func checkFiles(fset *token.FileSet, imp types.Importer, dir, path, name string, fileNames, imports []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		Name:    name,
		Dir:     dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Imports: imports,
	}, nil
}

// NewImporter returns the shared dependency importer Load uses: the
// standard library's source importer with cgo disabled. One importer
// should be reused across packages so its type-check cache is shared.
// The process must be inside the module for module-local import paths
// to resolve.
func NewImporter(fset *token.FileSet) types.Importer {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	build.Default = ctxt
	return importer.ForCompiler(fset, "source", nil)
}

// LoadDir parses and type-checks a single directory of Go files as a
// package with the given import path, bypassing go list. analyzetest
// uses it to load testdata packages (which go tooling ignores), with
// the import path chosen by the test — path-keyed exemptions like the
// internal/stats carve-out can be exercised by picking that path. The
// imports slice only feeds the suite's import graph; it is not used
// for resolution.
func LoadDir(fset *token.FileSet, imp types.Importer, dir, path string, imports []string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return checkFiles(fset, imp, dir, path, "", names, imports)
}

// newTypesInfo allocates the types.Info maps the analyzers rely on, for
// checkFiles, which both Load and LoadDir go through.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
