package analysis

import (
	"fmt"
	"strings"
)

// NolintLint keeps the suppression mechanism honest: a //nolint:<name>
// directive that names an unknown analyzer, or that no longer suppresses
// any finding, is itself a finding. Suppressions rot silently — the code
// they excused gets refactored away, the analyzer gets smarter, and the
// stale comment keeps licensing whatever lands on that line next. This
// check runs inside RunModule (it needs to see which directives fired
// across the whole run), so its Run hook is empty.
var NolintLint = &Analyzer{
	Name: "nolintlint",
	Doc:  "flags //nolint directives that suppress nothing or name unknown analyzers",
	Run:  func(*Pass) {},
}

// lintNolint turns unused or malformed directives into diagnostics.
func lintNolint(directives []*nolintDirective) []Diagnostic {
	known := map[string]*Analyzer{}
	for _, a := range All() {
		known[a.Name] = a
	}
	var out []Diagnostic
	for _, d := range directives {
		inTestFile := strings.HasSuffix(d.pos.Filename, "_test.go")
		for _, n := range d.names {
			a := known[n]
			switch {
			case a == nil:
				out = append(out, Diagnostic{
					Analyzer: NolintLint.Name,
					Pos:      d.pos,
					Message:  fmt.Sprintf("//nolint names unknown analyzer %q (try comparenb-vet -list)", n),
				})
			case inTestFile && a.NoTestFiles:
				out = append(out, Diagnostic{
					Analyzer: NolintLint.Name,
					Pos:      d.pos,
					Message:  fmt.Sprintf("//nolint:%s in a test file, but %s does not check test files; remove it", n, n),
				})
			case !d.used[n]:
				out = append(out, Diagnostic{
					Analyzer: NolintLint.Name,
					Pos:      d.pos,
					Message:  fmt.Sprintf("stale //nolint:%s: it suppresses no finding; remove it", n),
				})
			}
		}
	}
	return out
}
