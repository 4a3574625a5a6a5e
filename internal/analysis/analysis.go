// Package analysis is a self-contained static-analysis framework for this
// module, built only on the standard library's go/parser, go/ast, go/types
// and go/token. It exists because the pipeline's contract — the same seeded
// dataset must yield the same notebook, byte for byte — is exactly the kind
// of property the Go runtime conspires against (randomised map iteration)
// and ordinary tests rarely catch. The analyzers here encode the project's
// determinism, numeric-hygiene and error-discipline rules; they run both as
// the cmd/comparenb-vet CLI and inside go test ./... via selfcheck_test.go,
// so every future PR is checked automatically.
//
// The design follows the shape of golang.org/x/tools/go/analysis (an
// Analyzer with a Run function over a Pass) without importing it: go.mod
// stays dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a resolved source position
// and a human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run inspects the package in the Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //nolint comments.
	Name string
	// Doc is a one-line description (shown by comparenb-vet -list).
	Doc string
	// Run performs the check.
	Run func(*Pass)
	// FactsFn, when set, exports per-function facts for this analyzer.
	// It is called once per package, packages in dependency order, before
	// any Run.
	FactsFn func(*FactPass)
	// FactsFinalize runs once after every package's FactsFn — the place
	// to close facts over the call graph with Facts.Propagate.
	FactsFinalize func(*Facts)
	// NoTestFiles excludes _test.go files from this analyzer's Pass:
	// the rule targets production code only.
	NoTestFiles bool
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, comments included. Test
	// files are included unless the analyzer sets NoTestFiles.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path ("comparenb/internal/engine", …).
	Path string
	// Facts is the module-wide fact store, populated before Run.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Run applies each analyzer to one package and returns the surviving
// diagnostics. It is RunModule over a single package — fixture tests use
// it; the CLI and the selfcheck use RunModule so interprocedural facts
// span the whole module.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunModule([]*Package{pkg}, analyzers)
}

// RunModule builds the module-wide facts (call graph + per-function
// facts, packages in dependency order), applies each analyzer to each
// package, and returns the surviving diagnostics: findings on lines
// carrying a matching //nolint:<name> comment (on the same line or alone
// on the line above) are suppressed. When the nolintlint analyzer is in
// the set, directives that suppressed nothing become findings themselves.
func RunModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := BuildFacts(pkgs, analyzers)
	var diags []Diagnostic
	var directives []*nolintDirective
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			files := pkg.AllFiles()
			if a.NoTestFiles {
				files = pkg.Files
			}
			if len(files) == 0 || a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Facts:    facts,
				diags:    &diags,
			}
			a.Run(pass)
		}
		directives = append(directives, collectNolint(pkg)...)
	}
	diags = suppress(directives, diags)
	if slices.Contains(analyzers, NolintLint) {
		// The lint over directives is itself suppressible
		// (//nolint:nolintlint), one level deep.
		diags = append(diags, suppress(directives, lintNolint(directives))...)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by position, then analyzer — the
// stable order the CLI prints and the fixture tests compare against.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// nolintDirective is one parsed //nolint comment, tracking which of its
// names actually suppressed a finding (nolintlint's raw material).
type nolintDirective struct {
	pos   token.Position
	lines [2]int // covered lines: its own, and the next when standalone
	names []string
	used  map[string]bool // name → suppressed at least one diagnostic
}

// collectNolint parses every //nolint directive in the package, test
// files included.
//
// Syntax: `//nolint:name1,name2` or `//nolint:name // reason`. The
// comment suppresses matching analyzers on the line it sits on; a comment
// that is the whole line suppresses the line below it, so call sites can
// keep the justification above the code. A bare `//nolint` (no names) is
// deliberately NOT honoured: suppressions must name what they silence.
func collectNolint(pkg *Package) []*nolintDirective {
	var out []*nolintDirective
	for _, f := range pkg.AllFiles() {
		if pkg.Fset.File(f.Pos()) == nil {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := nolintNames(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &nolintDirective{
					pos:   pos,
					lines: [2]int{pos.Line, pos.Line},
					names: names,
					used:  map[string]bool{},
				}
				if pos.Column == 1 || onOwnLine(pkg.Fset, f, c) {
					d.lines[1] = pos.Line + 1
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppress drops diagnostics covered by //nolint directives, marking the
// directives that did the suppressing.
func suppress(directives []*nolintDirective, diags []Diagnostic) []Diagnostic {
	// (file, line, analyzer) → directives covering it.
	type key struct {
		file     string
		line     int
		analyzer string
	}
	cover := map[key][]*nolintDirective{}
	for _, d := range directives {
		for ln := d.lines[0]; ln <= d.lines[1]; ln++ {
			for _, n := range d.names {
				k := key{file: d.pos.Filename, line: ln, analyzer: n}
				cover[k] = append(cover[k], d)
			}
		}
	}
	var out []Diagnostic
	for _, diag := range diags {
		k := key{file: diag.Pos.Filename, line: diag.Pos.Line, analyzer: diag.Analyzer}
		if ds := cover[k]; len(ds) > 0 {
			for _, d := range ds {
				d.used[diag.Analyzer] = true
			}
			continue
		}
		out = append(out, diag)
	}
	return out
}

// nolintNames parses a comment's //nolint:a,b directive into analyzer
// names, ignoring any trailing "// reason" explanation.
func nolintNames(text string) []string {
	const prefix = "//nolint:"
	if !strings.HasPrefix(text, prefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	var names []string
	for _, n := range strings.Split(rest, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// onOwnLine reports whether the comment is the first token on its line,
// i.e. nothing but whitespace precedes it (so it documents the next line).
func onOwnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// If any declaration or statement token of the file shares the line and
	// starts before the comment, the comment trails code.
	trailing := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || trailing {
			return false
		}
		np := fset.Position(n.Pos())
		if np.Line == pos.Line && np.Column < pos.Column {
			trailing = true
		}
		return !trailing
	})
	return !trailing
}
