// Command comparenb generates a comparison notebook from a CSV file: the
// end-to-end flow of the paper's Figure 1, from the command line.
//
//	comparenb -in covid.csv -out covid.ipynb -queries 10
//
// The CSV must have a header row; columns whose every value parses as a
// number become measures, the rest become categorical attributes
// (override with -categorical / -numeric / -drop).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"comparenb"
	"comparenb/internal/pipeline"
	"comparenb/internal/sampling"
)

// main defers real work to run so deferred cleanups (CPU profile stop,
// observability flush) execute on every exit path; os.Exit lives here only.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comparenb:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in          = flag.String("in", "", "input CSV file (required)")
		out         = flag.String("out", "", "output file: .ipynb, .md or .html (default stdout as markdown)")
		queries     = flag.Int("queries", 10, "notebook size ε_t")
		epsD        = flag.Float64("epsd", 1.5, "distance bound ε_d")
		perms       = flag.Int("perms", 300, "permutations per statistical test")
		alpha       = flag.Float64("alpha", 0.05, "FDR level (insight significant when q ≤ alpha)")
		seed        = flag.Int64("seed", 1, "RNG seed")
		solver      = flag.String("solver", "heuristic", "TAP solver: heuristic | heuristic+2opt | exact | topk")
		strategy    = flag.String("sampling", "none", "test sampling: none | random | unbalanced")
		frac        = flag.Float64("sample-frac", 0.2, "sampling fraction when -sampling is set")
		useWSC      = flag.Bool("wsc", true, "merge group-by sets (Algorithm 2)")
		threads     = flag.Int("threads", 0, "worker threads for the parallel phases (0 = GOMAXPROCS); output is identical at any setting")
		cacheBudget = flag.Int64("cache-budget", 64<<20, "cube-cache bound in bytes (0 = unbounded)")
		timeBudget  = flag.Duration("time-budget", 0, "soft wall-clock budget, e.g. 30s: the governor splits it across the stats/hypothesis/TAP phases and each degrades gracefully when its share expires (0 = unbudgeted)")
		memBudget   = flag.Int64("mem-budget", 0, "hard cube-cache memory budget in bytes: cubes that would exceed it are answered but not cached (0 = disarmed)")
		maxRows     = flag.Int("max-rows", 0, "refuse CSV inputs with more data rows than this instead of loading them (0 = unlimited)")
		cats        = flag.String("categorical", "", "comma-separated columns to force categorical")
		nums        = flag.String("numeric", "", "comma-separated columns to force numeric")
		drop        = flag.String("drop", "", "comma-separated columns to ignore")
		maxCard     = flag.Int("max-cardinality", 0, "drop inferred-categorical columns above this cardinality (0 = keep)")
		report      = flag.String("report", "", "also write a machine-readable JSON run report to this file")
		median      = flag.Bool("median", false, "additionally test median-greater insights (extension)")
		hypotheses  = flag.Bool("hypotheses", false, "include each insight's hypothesis query in the notebook")
		profileOnly = flag.Bool("profile", false, "print the dataset profile and exit (no notebook)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's spans to this file (load in Perfetto / chrome://tracing)")
		metricsOut  = flag.String("metrics-out", "", "write a Prometheus-style text exposition of the run's counters and timings to this file")
		obsSummary  = flag.Bool("obs-summary", false, "print a per-phase observability summary to stderr after the run")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		verbose     = flag.Bool("v", false, "print run statistics to stderr")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	ds, err := comparenb.LoadCSV(*in, comparenb.CSVOptions{
		ForceCategorical:          splitList(*cats),
		ForceNumeric:              splitList(*nums),
		Drop:                      splitList(*drop),
		MaxCategoricalCardinality: *maxCard,
		MaxRows:                   *maxRows,
	})
	if err != nil {
		return err
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "loaded %d rows; categorical=%v numeric=%v dropped=%v\n",
			ds.Report.Rows, ds.Report.Categorical, ds.Report.Numeric, ds.Report.Dropped)
	}

	if *profileOnly {
		fmt.Print(comparenb.ProfileDataset(ds))
		return nil
	}

	cfg := comparenb.NewConfig()
	cfg.EpsT = *queries
	cfg.EpsD = *epsD
	cfg.Perms = *perms
	cfg.Alpha = *alpha
	cfg.Seed = *seed
	cfg.UseWSC = *useWSC
	cfg.Threads = *threads
	cfg.CubeCacheBudget = *cacheBudget
	cfg.TimeBudget = *timeBudget
	cfg.MemBudget = *memBudget
	cfg.IncludeHypotheses = *hypotheses
	if *median {
		cfg.InsightTypes = comparenb.ExtendedInsightTypes
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if cfg.Solver, err = pipeline.ParseSolver(*solver); err != nil {
		return err
	}
	if cfg.Solver == comparenb.SolverExact {
		cfg.ExactTimeout = 5 * time.Minute
	}
	if cfg.Sampling, err = sampling.ParseStrategy(*strategy); err != nil {
		return err
	}
	if cfg.Sampling != comparenb.SamplingNone {
		cfg.SampleFrac = *frac
	}

	// Observability: one run-scoped registry, flushed on every exit path —
	// an interrupted run still leaves valid (marked) partial artifacts.
	var reg *comparenb.ObsRegistry
	if *traceOut != "" || *metricsOut != "" || *obsSummary {
		reg = comparenb.NewObsRegistry()
		if *traceOut != "" {
			reg.EnableTracing(0)
		}
		cfg.Obs = reg
	}
	flushObs := func() error {
		if reg == nil {
			return nil
		}
		if *traceOut != "" {
			if err := writeFile(*traceOut, reg.WriteTrace); err != nil {
				return err
			}
		}
		if *metricsOut != "" {
			if err := writeFile(*metricsOut, reg.WriteMetrics); err != nil {
				return err
			}
		}
		if *obsSummary {
			return reg.WriteSummary(os.Stderr)
		}
		return nil
	}
	// Ctrl-C / SIGTERM cancel the run at the next phase-safe checkpoint:
	// the hard stop, as opposed to -time-budget's graceful degradation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	nb, res, err := comparenb.GenerateNotebookContext(ctx, ds, cfg)
	if err != nil {
		// Flush what the run recorded before it died: the trace is valid
		// JSON of the spans so far and the metrics exposition carries the
		// "# interrupted" marker.
		reg.MarkInterrupted()
		if ferr := flushObs(); ferr != nil {
			fmt.Fprintln(os.Stderr, "comparenb: observability flush:", ferr)
		}
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted; no notebook written")
		}
		return err
	}
	if *verbose {
		// Logf prints each phase's figures as the phase ends; the run's
		// total is the one figure it does not.
		fmt.Fprintf(os.Stderr, "pipeline: run done in %v\n", res.Timings.Total.Round(time.Millisecond))
	}

	if *report != "" {
		if err := writeFile(*report, res.Report().WriteJSON); err != nil {
			return err
		}
	}

	switch {
	case *out == "":
		if err := nb.WriteMarkdown(os.Stdout); err != nil {
			return err
		}
	case strings.HasSuffix(*out, ".ipynb"):
		if err := writeFile(*out, nb.WriteIPYNB); err != nil {
			return err
		}
	case strings.HasSuffix(*out, ".md"):
		if err := writeFile(*out, nb.WriteMarkdown); err != nil {
			return err
		}
	case strings.HasSuffix(*out, ".html"):
		if err := writeFile(*out, nb.WriteHTML); err != nil {
			return err
		}
	default:
		return fmt.Errorf("output must end in .ipynb, .md or .html, got %q", *out)
	}

	// Observability artifacts flush after the notebook so the notebook's
	// own verification queries are included in the counters.
	if err := flushObs(); err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// writeFile creates path, streams write into it and closes it, reporting
// the first failure — including the Close error, which is where a full
// disk or a flushed write error actually surfaces.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // best-effort: the write error is the one to report
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
