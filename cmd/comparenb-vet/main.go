// Command comparenb-vet runs the project's static-analysis suite
// (internal/analysis) over the module and prints findings in the standard
// file:line:col form. It exits 1 when there are findings, so it slots into
// scripts/check.sh and CI the same way go vet does.
//
// Usage:
//
//	comparenb-vet [-list] [dir]
//
// dir defaults to "." and may be any directory inside the module (the
// whole module is always checked — analyzers reason about cross-package
// properties like determinism, so partial runs would under-report).
// A justified finding is suppressed where it stands, with a
// //nolint:<analyzer> // <reason> comment (docs/STATIC_ANALYSIS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"comparenb/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if args := flag.Args(); len(args) > 0 {
		// Accept "./..." go-style patterns for muscle-memory compatibility;
		// the module is always checked whole.
		dir = strings.TrimSuffix(args[0], "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	}

	diags, err := analysis.CheckModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "comparenb-vet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "comparenb-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
