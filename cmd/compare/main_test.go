package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLI builds the binary into a per-test directory.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "compare-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runCLI runs the binary and returns its stdout, stderr and exit code.
func runCLI(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String(), errBuf.String(), code
}

// query is a valid invocation on the committed CSV; tests append flags to
// it, and a repeated flag overrides the earlier one.
var query = []string{
	"-in", filepath.Join("testdata", "sales.csv"),
	"-group", "region", "-by", "quarter", "-val", "q2", "-val2", "q1",
	"-measure", "sales", "-agg", "avg",
}

func withFlags(extra ...string) []string {
	return append(append([]string(nil), query...), extra...)
}

// TestCLIGolden locks what the command prints for one query: the SQL, the
// result table, and each insight type's support, p-value and hypothesis
// query. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/compare after an
// intentional change, and review the diff like any other code.
func TestCLIGolden(t *testing.T) {
	bin := buildCLI(t)
	stdout, stderr, code := runCLI(t, bin, withFlags("-perms", "200", "-seed", "1")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	path := filepath.Join("testdata", "sales.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, stdout, want)
	}
}

// TestCLIUsageErrors: a bad command line exits 2 and names the flag.
// Missing flags are reported one at a time, in a fixed order.
func TestCLIUsageErrors(t *testing.T) {
	bin := buildCLI(t)
	required := []string{"-in", "-group", "-by", "-val", "-val2", "-measure"}
	for i, name := range required {
		// query holds the required flags in this order, two words each.
		_, stderr, code := runCLI(t, bin, query[:2*i]...)
		if code != 2 || !strings.HasPrefix(stderr, "compare: "+name+" is required\n") {
			t.Errorf("with %v: exit %d, stderr %q; want exit 2 naming %s", required[:i], code, firstLine(stderr), name)
		}
	}
	// Def. 3.1 needs permutations to test, A ≠ B and val ≠ val'.
	for _, tc := range []struct {
		flags []string
		name  string
	}{
		{[]string{"-perms", "0"}, "-perms"},
		{[]string{"-perms", "-5"}, "-perms"},
		{[]string{"-by", "region"}, "-by"},
		{[]string{"-val2", "q2"}, "-val2"},
	} {
		stdout, stderr, code := runCLI(t, bin, withFlags(tc.flags...)...)
		if code != 2 || !strings.HasPrefix(stderr, "compare: "+tc.name+" ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %s", tc.flags, code, firstLine(stderr), tc.name)
		}
		if stdout != "" {
			t.Errorf("%v: usage error printed a result:\n%s", tc.flags, stdout)
		}
	}
}

// TestCLIQueryErrors: a query the input cannot answer exits 1.
func TestCLIQueryErrors(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-measure", "profit"}, "unknown column"},
		{[]string{"-group", "store"}, "unknown column"},
		{[]string{"-agg", "median"}, "unknown aggregate"},
		{[]string{"-val", "q9"}, "value not in dom(quarter)"},
	} {
		_, stderr, code := runCLI(t, bin, withFlags(tc.flags...)...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 mentioning %q", tc.flags, code, firstLine(stderr), tc.want)
		}
	}
}

// TestCLITimeout: an expired -timeout aborts the significance tests with
// the context's error instead of running them to the end.
func TestCLITimeout(t *testing.T) {
	bin := buildCLI(t)
	start := time.Now()
	// Fifty million permutations take tens of seconds; the 1ns deadline
	// must stop the first test before its first block completes.
	_, stderr, code := runCLI(t, bin, withFlags("-perms", "50000000", "-timeout", "1ns")...)
	elapsed := time.Since(start)
	if code != 1 || !strings.Contains(stderr, "context deadline exceeded") {
		t.Errorf("exit %d, stderr %q; want exit 1 with a context error", code, firstLine(stderr))
	}
	if elapsed > 10*time.Second {
		t.Errorf("timed-out run took %v; want a fast failure", elapsed)
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
