package analysis

import (
	"strings"
	"testing"
)

// TestSelfCheck runs every analyzer over the whole repository, exactly as
// cmd/comparenb-vet does — interprocedural facts spanning the module,
// test files included — and fails on any finding a //nolint directive
// does not suppress, stale directives included. Because this runs inside
// go test ./..., the tier-1 gate enforces the project's determinism,
// numeric-hygiene and error-discipline rules on every future change: a
// new unsorted map iteration on an output path, a helper that quietly
// starts calling time.Now under the notebook renderer, an unended span or
// a leaked goroutine breaks the build.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("selfcheck type-checks the whole module; skipped in -short mode")
	}
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("suspiciously few packages loaded (%d); loader walk is broken", len(pkgs))
	}
	// The analysis package itself and its fixtures must be in scope too —
	// except fixtures, which are intentionally full of violations and are
	// skipped by the testdata rule.
	foundSelf := false
	foundFaultInject := false
	for _, pkg := range pkgs {
		if pkg.Path == "comparenb/internal/analysis" {
			foundSelf = true
		}
		if pkg.Path == "comparenb/internal/faultinject" {
			foundFaultInject = true
		}
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("fixture package %s leaked into the module walk", pkg.Path)
		}
	}
	if !foundSelf {
		t.Error("internal/analysis not among loaded packages; the vet suite is not checking itself")
	}
	if !foundFaultInject {
		t.Error("internal/faultinject not among loaded packages; the robustness hooks are unchecked")
	}

	var failures []string
	for _, d := range RunModule(pkgs, All()) {
		failures = append(failures, d.String())
	}
	if len(failures) > 0 {
		t.Errorf("comparenb-vet found %d unsuppressed finding(s):\n%s",
			len(failures), strings.Join(failures, "\n"))
	}
}
