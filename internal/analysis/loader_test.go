package analysis

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLoaderGenerics confirms type-parameterised code survives the full
// load path: production instantiations, in-package test instantiations
// with fresh type arguments, and an external test package importing the
// fixture back.
func TestLoaderGenerics(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadDirAll(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatalf("loading generics fixture: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want primary + external test", len(pkgs))
	}
	base, xtest := pkgs[0], pkgs[1]

	for _, name := range []string{"Pair", "Map", "Sum", "Doubled", "testOnlyHelper"} {
		if base.Types.Scope().Lookup(name) == nil {
			t.Errorf("generic declaration %s missing from combined scope", name)
		}
	}
	if !xtest.XTest {
		t.Error("external test package not marked XTest")
	}
	if !strings.HasSuffix(xtest.Path, " [test]") {
		t.Errorf("external test package path %q lacks [test] suffix", xtest.Path)
	}
	if xtest.Types.Scope().Lookup("xtestOnlySum") == nil {
		t.Error("external test declaration missing from xtest scope")
	}
	if len(xtest.Files) != 0 || len(xtest.TestFiles) == 0 {
		t.Errorf("xtest package files misfiled: %d non-test, %d test", len(xtest.Files), len(xtest.TestFiles))
	}

	// Loading the same directory again must hit the memo, not re-check.
	again, err := l.LoadDirAll(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != base || again[1] != xtest {
		t.Error("LoadDirAll did not memoise the loaded packages")
	}
}

// TestLoaderXTestSeesTestVariant confirms an external test package sees
// the package under test as go test builds it: declarations exported by
// the in-package tests resolve, and a module package importing the
// package under test is re-checked against that variant so its types
// match. The import cache keeps serving the plain variant.
func TestLoaderXTestSeesTestVariant(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadDirAll(filepath.Join("testdata", "src", "xtestexport"))
	if err != nil {
		t.Fatalf("loading xtestexport fixture: %v", err)
	}
	if len(pkgs) != 2 || !pkgs[1].XTest {
		t.Fatalf("got %d packages, want primary + external test", len(pkgs))
	}
	if pkgs[1].Types.Scope().Lookup("doubledHidden") == nil {
		t.Error("external test declaration missing from xtest scope")
	}
	if pkgs[0].Types.Scope().Lookup("Hidden") == nil {
		t.Error("in-package test export missing from the test variant")
	}
	if plain := l.cache[pkgs[0].Path]; plain == nil || plain.Types.Scope().Lookup("Hidden") != nil {
		t.Error("the import cache must hold the plain variant, without test exports")
	}
}

// TestLoaderBuildTags confirms files ruled out by //go:build lines or
// GOOS filename suffixes never reach the type checker. The excluded
// files redeclare Here with other types, so a filtering bug is a loud
// type-check failure here, not a silent pass.
func TestLoaderBuildTags(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("fixture's GOOS-suffixed file is windows-only")
	}
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "buildtags"))
	if err != nil {
		t.Fatalf("loading buildtags fixture: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("got %d files, want 1 (constraints should exclude the rest)", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("Here") == nil {
		t.Error("always-built declaration Here missing")
	}
	for _, name := range []string{"TaggedOut", "WindowsOnly"} {
		if pkg.Types.Scope().Lookup(name) != nil {
			t.Errorf("constraint-excluded declaration %s leaked into the package", name)
		}
	}
}

// TestLoaderDepOrder confirms dependencies finish type-checking before
// their dependents, which the facts layer relies on.
func TestLoaderDepOrder(t *testing.T) {
	l := sharedLoader(t)
	if _, err := l.LoadDir(filepath.Join("testdata", "src", "detsource")); err != nil {
		t.Fatal(err)
	}
	order := l.DepOrder()
	idx := map[string]int{}
	for i, path := range order {
		idx[path] = i
	}
	helper := "comparenb/internal/analysis/testdata/src/detsource/helper"
	main := "comparenb/internal/analysis/testdata/src/detsource"
	hi, ok1 := idx[helper]
	mi, ok2 := idx[main]
	if !ok1 || !ok2 {
		t.Fatalf("dep order %v missing fixture packages", order)
	}
	if hi > mi {
		t.Errorf("helper (%d) ordered after its importer (%d)", hi, mi)
	}
}
