package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortises stdlib type-checking across the fixture tests and
// the selfcheck: the source importer re-checks each stdlib package from
// source, which is the one expensive step, so every test in the package
// shares one memoised loader.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// loadFixture loads the analyzer's fixture package plus its helper
// subpackage when one exists (helpers model out-of-scope code whose facts
// must flow into the fixture transitively).
func loadFixture(t *testing.T, l *Loader, name string) []*Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	var pkgs []*Package
	if helper := filepath.Join(dir, "helper"); hasGoFiles(helper) {
		p, err := l.LoadDir(helper)
		if err != nil {
			t.Fatalf("loading %s helper: %v", name, err)
		}
		pkgs = append(pkgs, p)
	}
	p, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return append(pkgs, p)
}

// TestFixtures runs the whole suite over each analyzer's
// testdata/src/<name> package and checks that analyzer's diagnostics
// against `// want "substring"` comments: every want line must produce a
// matching diagnostic, and every diagnostic must land on a want line.
// The full suite runs (rather than the one analyzer) so suppression and
// nolintlint staleness behave exactly as in a real comparenb-vet run;
// other analyzers' findings in the fixture are ignored. Suppressed lines
// (//nolint) double as tests of the suppression machinery — they carry no
// want comment and must stay silent.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			l := sharedLoader(t)
			pkgs := loadFixture(t, l, a.Name)
			var wants map[string]string
			for _, pkg := range pkgs {
				for k, v := range collectWants(pkg) {
					if wants == nil {
						wants = map[string]string{}
					}
					wants[k] = v
				}
			}
			var diags []Diagnostic
			for _, d := range RunModule(pkgs, All()) {
				if d.Analyzer == a.Name {
					diags = append(diags, d)
				}
			}

			matched := map[string]bool{}
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
				want, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !strings.Contains(d.Message, want) {
					t.Errorf("diagnostic %q does not contain want %q", d, want)
				}
				matched[key] = true
			}
			for key, want := range wants {
				if !matched[key] {
					t.Errorf("missing diagnostic at %s (want %q)", key, want)
				}
			}
		})
	}
}

// collectWants extracts `// want "…"` expectations, keyed file:line. The
// marker may be a whole comment or trail a //nolint directive as its
// reason (`//nolint:x // want "stale"`), which is how the nolintlint
// fixture annotates findings that sit on the directive itself.
func collectWants(pkg *Package) map[string]string {
	wants := map[string]string{}
	for _, f := range pkg.AllFiles() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const marker = `// want "`
				var i int
				if strings.HasPrefix(c.Text, marker) {
					i = 0
				} else if strings.HasPrefix(c.Text, "//nolint:") {
					// Prose mentions of the marker (fixture doc comments)
					// must not count; only directives carry embedded wants.
					if i = strings.Index(c.Text, marker); i < 0 {
						continue
					}
				} else {
					continue
				}
				rest := c.Text[i+len(marker):]
				end := strings.LastIndex(rest, `"`)
				if end < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = rest[:end]
			}
		}
	}
	return wants
}

// TestNolintParsing pins the suppression-comment grammar.
func TestNolintParsing(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//nolint:errcheck", []string{"errcheck"}},
		{"//nolint:errcheck,maporder", []string{"errcheck", "maporder"}},
		{"//nolint:floateq // exact tie-break", []string{"floateq"}},
		{"//nolint: floateq , nopanic ", []string{"floateq", "nopanic"}},
		{"//nolint", nil},    // bare nolint is not honoured
		{"// nolint:x", nil}, // must be a directive, no space
		{"// regular comment", nil},
	}
	for _, c := range cases {
		got := nolintNames(c.text)
		if len(got) != len(c.want) {
			t.Errorf("nolintNames(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("nolintNames(%q) = %v, want %v", c.text, got, c.want)
			}
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering format.
func TestDiagnosticString(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "floateq"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkg, []*Analyzer{FloatEq})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics in floateq fixture")
	}
	s := diags[0].String()
	if !strings.Contains(s, "floateq.go:") || !strings.Contains(s, ": floateq: ") {
		t.Errorf("unexpected diagnostic format: %q", s)
	}
}

// TestWantCommentsPresent guards the fixtures themselves: a fixture
// without any want comment would make its analyzer test vacuous.
func TestWantCommentsPresent(t *testing.T) {
	l := sharedLoader(t)
	for _, a := range All() {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatalf("%s fixture: %v", a.Name, err)
		}
		if len(collectWants(pkg)) == 0 {
			t.Errorf("%s fixture has no want comments", a.Name)
		}
		// Each fixture must also exercise suppression.
		hasNolint := false
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if len(nolintNames(c.Text)) > 0 {
						hasNolint = true
					}
				}
			}
		}
		if !hasNolint {
			t.Errorf("%s fixture has no //nolint case", a.Name)
		}
	}
}

// TestLoaderIncludesTests confirms the default loader folds in-package
// _test.go files into the package's type information, while a loader
// with IncludeTests unset reproduces the old production-only view.
func TestLoaderIncludesTests(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TestFiles) == 0 {
		t.Fatal("generics fixture: no test files folded in")
	}
	if pkg.Types.Scope().Lookup("testOnlyHelper") == nil {
		t.Error("test-file declaration missing from the combined type info")
	}
	for _, f := range pkg.TestFiles {
		if !pkg.IsTestFile(f.Pos()) {
			t.Errorf("IsTestFile false for test file %s", pkg.Fset.Position(f.Pos()).Filename)
		}
	}

	noTests, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	noTests.IncludeTests = false
	pkg2, err := noTests.LoadDir(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg2.TestFiles) != 0 {
		t.Error("IncludeTests=false still loaded test files")
	}
	if pkg2.Types.Scope().Lookup("testOnlyHelper") != nil {
		t.Error("IncludeTests=false leaked test declarations into type info")
	}
}
