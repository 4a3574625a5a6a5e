// Command obscheck validates observability artifacts written by
// comparenb's -trace-out and -metrics-out flags: the trace must be
// well-formed Chrome trace-event JSON with balanced per-track nesting and
// monotone timestamps, and the metrics file must be a well-formed
// Prometheus-style exposition, as are a comparenbd job's trace and
// metrics artifacts. The CI smoke uses it to gate the artifacts without
// loading them into a UI.
//
//	obscheck -trace run.trace.json -metrics run.metrics.txt
//
// Exit status 0 when every given artifact validates, 1 otherwise. A file
// whose flag is omitted is skipped, so either artifact can be checked
// alone.
package main

import (
	"flag"
	"fmt"
	"os"

	"comparenb/internal/obs"
)

func main() {
	var (
		tracePath   = flag.String("trace", "", "Chrome trace-event JSON file to validate")
		metricsPath = flag.String("metrics", "", "metrics exposition file to validate")
		quiet       = flag.Bool("q", false, "print nothing on success")
	)
	flag.Parse()
	if *tracePath == "" && *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "obscheck: nothing to check; pass -trace and/or -metrics")
		flag.Usage()
		os.Exit(2)
	}

	ok := true
	if *tracePath != "" {
		ok = checkFile(*tracePath, "trace", obs.ValidateTrace, *quiet) && ok
	}
	if *metricsPath != "" {
		ok = checkFile(*metricsPath, "metrics", obs.ValidateMetrics, *quiet) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func checkFile(path, kind string, validate func([]byte) error, quiet bool) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		return false
	}
	if err := validate(data); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %s %s: %v\n", kind, path, err)
		return false
	}
	if !quiet {
		fmt.Printf("obscheck: %s %s OK (%d bytes)\n", kind, path, len(data))
	}
	return true
}
