package testutil

import (
	"os"
	"strings"
	"testing"
)

// ReadPinned returns the lines of the pinned file at path, less its '#'
// comments and blank lines. With UPDATE_GOLDEN set in the environment it
// first rewrites the file: each line of header as a '#' comment, then
// the lines gen returns. Every pinned file regenerates through this one
// switch; a change that claims byte identity must never need it.
func ReadPinned(t testing.TB, path, header string, gen func() []string) []string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, line := range strings.Split(header, "\n") {
			b.WriteString("# " + line + "\n")
		}
		for _, line := range gen() {
			b.WriteString(line + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}
