package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
//
// For an ordinary package, Files are the non-test files and TestFiles the
// in-package _test.go files; Types/Info cover BOTH (the "test variant"),
// so analyzers see test code with full type information. An external test
// package (package foo_test) is returned as its own Package with XTest
// set, Files nil and the _test.go files in TestFiles.
type Package struct {
	// Path is the import path (module path + relative directory). External
	// test packages carry a " [test]" suffix so they never collide with a
	// real directory.
	Path string
	// Dir is the absolute directory the files were read from.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test files, in filename order.
	Files []*ast.File
	// TestFiles are the parsed _test.go files belonging to this package
	// (in-package tests, or all files of an XTest package).
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
	// XTest marks an external test package (package foo_test).
	XTest bool
}

// AllFiles returns the package's files, test files included, in load
// order (non-test first).
func (p *Package) AllFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// IsTestFile reports whether the file at pos sits in a _test.go file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Loader parses and type-checks the module's packages using only the
// standard library. Package imports inside the module are resolved against
// the module root; everything else (the stdlib) goes through go/importer's
// source importer, so no compiled export data or external tooling is
// needed. Results are memoised, so loading the whole module type-checks
// each package once.
//
// Type-checking happens in dependency order: the importer recurses into
// module-internal imports before the importing package is checked, and the
// loader records that completion order (DepOrder) for the facts layer,
// which exports per-function facts bottom-up.
//
// Test files are handled in a second stage per package so that the import
// cache only ever holds the plain, non-test variant: in-package _test.go
// files are type-checked together with the non-test files into a separate
// combined Package (what LoadDir returns), and external test packages
// become their own XTest Packages. Because the cache never holds a test
// variant, test-only import edges (pipeline's tests importing testutil,
// which imports pipeline) cannot form a cycle during loading, and every
// cross-package type reference binds to the single plain variant
// regardless of load order. The one exception is an external test
// package, which sees the package it tests the way go test builds it
// (xtestImporter).
type Loader struct {
	Fset *token.FileSet
	// ModPath is the module path from go.mod (e.g. "comparenb").
	ModPath string
	// ModDir is the absolute module root.
	ModDir string
	// IncludeTests controls whether _test.go files are parsed and
	// type-checked. NewLoader enables it; analyzers opt out individually
	// via Analyzer.NoTestFiles.
	IncludeTests bool

	std   types.ImporterFrom
	cache map[string]*Package
	// tests memoises the combined (non-test + in-package test) variant per
	// path; xtests memoises external test packages by the path of the
	// package they test. Both live outside cache so the importer can never
	// serve a test variant.
	tests  map[string]*Package
	xtests map[string]*Package
	// order is the dependency (type-check completion) order of cache
	// entries.
	order []string
	// ctx evaluates build constraints so tagged-out files never reach the
	// type checker.
	ctx build.Context
}

// NewLoader creates a loader rooted at the module containing dir: it walks
// up to the nearest go.mod and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:         fset,
		ModPath:      modPath,
		ModDir:       root,
		IncludeTests: true,
		std:          importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:        map[string]*Package{},
		tests:        map[string]*Package{},
		xtests:       map[string]*Package{},
		ctx:          build.Default,
	}, nil
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", path)
}

// LoadModule loads every package under the module root, skipping testdata,
// hidden directories and directories without non-test Go files. Packages
// come back sorted by import path; external test packages follow the
// package they test.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		sub, err := l.LoadDirAll(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, sub...)
	}
	return pkgs, nil
}

// LoadDir loads the package in one directory, type-checking it (and,
// transitively, its intra-module imports). When the directory also holds
// an external test package, only the primary package is returned; use
// LoadDirAll to get both.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	pkgs, err := l.LoadDirAll(dir)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// LoadDirAll loads every package in one directory: the primary package
// (test files folded in when IncludeTests is set) followed by the external
// test package, if any.
func (l *Loader) LoadDirAll(dir string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModDir, abs)
	if err != nil {
		return nil, err
	}
	path := l.ModPath
	if rel != "." {
		path = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	base, err := l.loadPath(path, abs)
	if err != nil {
		return nil, err
	}
	if !l.IncludeTests {
		return []*Package{base}, nil
	}
	return l.loadTestVariants(base)
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// matchFile evaluates the file's build constraints (//go:build lines and
// GOOS/GOARCH filename suffixes) against the default build context.
func (l *Loader) matchFile(dir, name string) bool {
	ok, err := l.ctx.MatchFile(dir, name)
	return err == nil && ok
}

// loadPath parses and type-checks the non-test half of the package at dir
// under import path `path`, memoised. This is the variant the import
// cache serves, so importing packages never see test declarations.
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		if !l.matchFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := newTypeInfo()
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	l.order = append(l.order, path)
	return pkg, nil
}

// loadTestVariants derives the test view of base: in-package _test.go
// files are type-checked together with the non-test files into a NEW
// combined Package (same Path, Files shared, TestFiles set), and external
// test files become a standalone XTest Package. base itself — the Package
// the import cache serves — is never modified: every cross-package
// reference in the module must bind to the one plain variant, or
// identical types from different load orders would stop being identical.
// Both variants are memoised, so each type-check happens once.
func (l *Loader) loadTestVariants(base *Package) ([]*Package, error) {
	primary, done := l.tests[base.Path]
	if !done {
		entries, err := os.ReadDir(base.Dir)
		if err != nil {
			return nil, err
		}
		var inPkg, xTest []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			if !l.matchFile(base.Dir, e.Name()) {
				continue
			}
			f, err := parser.ParseFile(l.Fset, filepath.Join(base.Dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parsing %s: %w", e.Name(), err)
			}
			if f.Name.Name == base.Types.Name()+"_test" {
				xTest = append(xTest, f)
			} else {
				inPkg = append(inPkg, f)
			}
		}
		primary = base
		if len(inPkg) > 0 {
			info := newTypeInfo()
			conf := types.Config{Importer: (*loaderImporter)(l)}
			all := append(append([]*ast.File{}, base.Files...), inPkg...)
			tpkg, err := conf.Check(base.Path, l.Fset, all, info)
			if err != nil {
				return nil, fmt.Errorf("analysis: type-checking %s tests: %w", base.Path, err)
			}
			primary = &Package{
				Path:      base.Path,
				Dir:       base.Dir,
				Fset:      l.Fset,
				Files:     base.Files,
				TestFiles: inPkg,
				Types:     tpkg,
				Info:      info,
			}
		}
		l.tests[base.Path] = primary
		l.xtests[base.Path] = nil
		if len(xTest) > 0 {
			info := newTypeInfo()
			var imp types.Importer = (*loaderImporter)(l)
			if primary != base {
				imp = &xtestImporter{l: l, under: primary, rebuilt: map[string]*types.Package{}}
			}
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(base.Path+"_test", l.Fset, xTest, info)
			if err != nil {
				return nil, fmt.Errorf("analysis: type-checking %s external tests: %w", base.Path, err)
			}
			l.xtests[base.Path] = &Package{
				Path:      base.Path + " [test]",
				Dir:       base.Dir,
				Fset:      l.Fset,
				TestFiles: xTest,
				Types:     tpkg,
				Info:      info,
				XTest:     true,
			}
		}
	}
	if x := l.xtests[base.Path]; x != nil {
		return []*Package{primary, x}, nil
	}
	return []*Package{primary}, nil
}

// DepOrder returns the import paths of the plain (non-test) packages in
// the order their type-checking completed — i.e. dependencies before
// dependents. The facts layer walks packages in this order so a
// function's facts are always computed after its callees'.
func (l *Loader) DepOrder() []string {
	return append([]string(nil), l.order...)
}

// newTypeInfo allocates the types.Info maps the analyzers rely on.
func newTypeInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// loaderImporter adapts the Loader to types.Importer: module-internal
// import paths are type-checked from the module tree, everything else is
// delegated to the stdlib source importer.
type loaderImporter Loader

// Import implements types.Importer.
func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.loadPath(path, filepath.Join(l.ModDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModDir, 0)
}

// xtestImporter resolves an external test package's imports the way go
// test builds them. The package under test is its test variant, so the
// external tests see declarations of its in-package _test.go files. Every
// module package that imports it, directly or not, is re-checked against
// that variant, so a type the tests reach along two import paths stays one
// type. Every other import is the plain cached package.
type xtestImporter struct {
	l       *Loader
	under   *Package                  // test variant of the package under test
	rebuilt map[string]*types.Package // dependents re-checked against under
}

// Import implements types.Importer.
func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.under.Path {
		return x.under.Types, nil
	}
	if p, ok := x.rebuilt[path]; ok {
		return p, nil
	}
	plain, err := (*loaderImporter)(x.l).Import(path)
	if err != nil || !x.dependsOn(plain) {
		return plain, err
	}
	conf := types.Config{Importer: x}
	p, err := conf.Check(path, x.l.Fset, x.l.cache[path].Files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: re-checking %s against %s tests: %w", path, x.under.Path, err)
	}
	x.rebuilt[path] = p
	return p, nil
}

// dependsOn reports whether the plain module package pkg imports the
// package under test, directly or transitively. The standard library
// never does, so the walk stays inside the module.
func (x *xtestImporter) dependsOn(pkg *types.Package) bool {
	for _, dep := range pkg.Imports() {
		if dep.Path() == x.under.Path {
			return true
		}
		if _, inModule := x.l.cache[dep.Path()]; inModule && x.dependsOn(dep) {
			return true
		}
	}
	return false
}
