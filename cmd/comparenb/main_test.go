package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the binary and drives the full CSV → notebook
// flow: type inference, generation, every output format, and the JSON
// report.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "comparenb-cli")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// A small CSV with a strong, obvious structure.
	var sb strings.Builder
	sb.WriteString("region,product,channel,sales\n")
	regions := []string{"north", "south", "east"}
	products := []string{"widget", "gadget"}
	channels := []string{"web", "store"}
	for i := 0; i < 600; i++ {
		r := regions[i%3]
		p := products[i%2]
		c := channels[(i/3)%2]
		v := 100 + (i%3)*50 + (i%2)*20 + i%7
		sb.WriteString(r + "," + p + "," + c + ",")
		sb.WriteString(intToStr(v))
		sb.WriteString("\n")
	}
	csvPath := filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(csvPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, format := range []string{"nb.ipynb", "nb.md", "nb.html"} {
		outPath := filepath.Join(dir, format)
		reportPath := filepath.Join(dir, "report-"+format+".json")
		cmd := exec.Command(bin,
			"-in", csvPath, "-out", outPath, "-report", reportPath,
			"-queries", "3", "-perms", "200", "-seed", "1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", format, err, out)
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		content := string(data)
		switch {
		case strings.HasSuffix(format, ".ipynb"):
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("ipynb not JSON: %v", err)
			}
			if doc["nbformat"].(float64) != 4 {
				t.Error("nbformat != 4")
			}
		case strings.HasSuffix(format, ".md"):
			if !strings.Contains(content, "```sql") {
				t.Error("markdown missing SQL block")
			}
		case strings.HasSuffix(format, ".html"):
			if !strings.Contains(content, "<pre><code>") {
				t.Error("html missing code block")
			}
		}
		rep, err := os.ReadFile(reportPath)
		if err != nil {
			t.Fatal(err)
		}
		var report map[string]any
		if err := json.Unmarshal(rep, &report); err != nil {
			t.Fatalf("report not JSON: %v", err)
		}
		if report["dataset"] != "sales" {
			t.Errorf("report dataset = %v", report["dataset"])
		}
	}

	// Error paths.
	if err := exec.Command(bin, "-in", filepath.Join(dir, "absent.csv")).Run(); err == nil {
		t.Error("missing input: want non-zero exit")
	}
	if err := exec.Command(bin, "-in", csvPath, "-solver", "bogus").Run(); err == nil {
		t.Error("bad solver: want non-zero exit")
	}
	if err := exec.Command(bin, "-in", csvPath, "-out", filepath.Join(dir, "x.pdf")).Run(); err == nil {
		t.Error("bad extension: want non-zero exit")
	}
}

func intToStr(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
