package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRows builds the binary and checks that -rows sizes the datasets
// that take it and is refused, with nothing written, for vaccine, whose
// size is fixed.
func TestCLIRows(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "datagen-cli")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		args  []string
		code  int
		lines int // CSV lines on stdout, the header included
	}{
		{[]string{"-dataset", "vaccine", "-rows", "2000"}, 1, 0},
		{[]string{"-dataset", "vaccine"}, 0, 5046},
		{[]string{"-dataset", "tiny", "-rows", "50"}, 0, 51},
	}
	for _, tc := range cases {
		cmd := exec.Command(bin, tc.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("run %v: %v", tc.args, err)
			}
			code = exit.ExitCode()
		}
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if got := strings.Count(stdout.String(), "\n"); got != tc.lines {
			t.Errorf("%v: %d lines on stdout, want %d", tc.args, got, tc.lines)
		}
		if tc.code != 0 && !strings.Contains(stderr.String(), "-rows") {
			t.Errorf("%v: stderr %q does not name -rows", tc.args, stderr.String())
		}
	}
}
