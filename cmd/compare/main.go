// Command compare runs a single ad-hoc comparison query against a CSV —
// the manual workflow the paper automates, kept handy for spot checks:
// print the Definition 3.1 SQL, evaluate it once with the literal
// two-scan plan (engine.CompareDirect), show the result as the notebook's
// Markdown table, and test both insight hypotheses on it.
//
// Missing flags, a non-positive -perms, -by equal to -group and -val2
// equal to -val are usage errors (exit 2); a query that cannot run on the
// input, such as an unknown column or -agg, exits 1.
//
//	compare -in covid.csv -group continent -by month -val 4 -val2 5 -measure cases -agg sum
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"comparenb"
	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/pipeline"
	"comparenb/internal/stats"
	"comparenb/internal/table"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV file (required)")
		group   = flag.String("group", "", "grouping attribute A (required)")
		by      = flag.String("by", "", "selection attribute B (required)")
		val     = flag.String("val", "", "first selected value of B (required)")
		val2    = flag.String("val2", "", "second selected value of B (required)")
		measure = flag.String("measure", "", "measure M (required)")
		aggName = flag.String("agg", "sum", "aggregate: sum | avg | min | max | count")
		perms   = flag.Int("perms", 500, "permutations for the significance tests")
		seed    = flag.Int64("seed", 1, "RNG seed")
		timeout = flag.Duration("timeout", 0, "abort the significance tests after this long (0 = no limit)")
		cats    = flag.String("categorical", "", "comma-separated columns to force categorical")
		maxRows = flag.Int("max-rows", 0, "refuse CSV inputs with more data rows than this (0 = unlimited)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (at exit) to this file")
	)
	flag.Parse()
	// Deliberately a slice, not a map: missing-flag errors must come out in
	// a stable order (the maporder analyzer would flag the map version).
	for _, req := range []struct{ name, v string }{
		{"-in", *in}, {"-group", *group}, {"-by", *by}, {"-val", *val}, {"-val2", *val2}, {"-measure", *measure},
	} {
		if req.v == "" {
			usageError(req.name + " is required")
		}
	}
	// The significance tests need permutations, and Def. 3.1 requires
	// A ≠ B and val ≠ val'.
	switch {
	case *perms <= 0:
		usageError(fmt.Sprintf("-perms must be positive, got %d", *perms))
	case *by == *group:
		usageError(fmt.Sprintf("-by must name a different attribute than -group (both %q)", *by))
	case *val2 == *val:
		usageError(fmt.Sprintf("-val2 must differ from -val (both %q)", *val))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() also runs this, so error exits still flush the profile.
		stopProfiles = func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}
	}
	defer finishProfiles(*memProf)

	opts := comparenb.CSVOptions{MaxRows: *maxRows}
	if *cats != "" {
		opts.ForceCategorical = splitComma(*cats)
	}
	ds, err := comparenb.LoadCSV(*in, opts)
	if err != nil {
		fatal(err)
	}
	rel := ds.Rel

	attrA := rel.CatIndexOf(*group)
	attrB := rel.CatIndexOf(*by)
	meas := rel.MeasIndexOf(*measure)
	if attrA < 0 || attrB < 0 || meas < 0 {
		fatal(fmt.Errorf("unknown column: group=%q (cat %d), by=%q (cat %d), measure=%q (meas %d); categorical=%v numeric=%v",
			*group, attrA, *by, attrB, *measure, meas, ds.Report.Categorical, ds.Report.Numeric))
	}
	c1, ok1 := rel.CodeOf(attrB, *val)
	c2, ok2 := rel.CodeOf(attrB, *val2)
	if !ok1 || !ok2 {
		fatal(fmt.Errorf("value not in dom(%s): %q ok=%v, %q ok=%v", *by, *val, ok1, *val2, ok2))
	}
	agg, err := engine.ParseAgg(*aggName)
	if err != nil {
		fatal(err)
	}

	q := insight.Query{GroupBy: attrA, Attr: attrB, Val: c1, Val2: c2, Meas: meas, Agg: agg}
	fmt.Println("-- comparison query (Def. 3.1):")
	fmt.Println(pipeline.ComparisonSQL(rel, q))

	// One evaluation answers both the printed table and the support checks.
	res := engine.CompareDirect(rel, attrA, attrB, c1, c2, meas, agg)
	fmt.Println("\n-- result:")
	fmt.Print(pipeline.ResultTable(rel, q, res, 0))

	// Support + significance for both paper insight types.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fmt.Println("\n-- insights:")
	for _, typ := range insight.AllTypes {
		supports := insight.Supports(res, typ)
		p, err := significance(ctx, rel, attrB, c1, c2, meas, typ, *perms, *seed)
		if err != nil {
			fatal(fmt.Errorf("significance test for %s: %w", typ, err))
		}
		verdict := "not supported by this comparison"
		if supports {
			verdict = "SUPPORTED by this comparison"
		}
		fmt.Printf("%-18s (%s = %s vs %s): %s; permutation p = %.4f\n",
			typ, *by, *val, *val2, verdict, p)
		fmt.Println("  hypothesis query:")
		fmt.Println(indent(pipeline.HypothesisSQL(rel, pipeline.ScoredQuery{Query: q}, insight.Insight{Type: typ})))
	}
}

// significance runs the raw-data permutation test of Table 1, with the
// seeded block streams so the p-value depends only on the seed. A
// cancelled or expired ctx aborts the test and returns its error.
func significance(ctx context.Context, rel *table.Relation, attrB int, c1, c2 int32, meas int, typ insight.Type, perms int, seed int64) (float64, error) {
	xs := engine.FilterMeasure(rel, attrB, c1, meas)
	ys := engine.FilterMeasure(rel, attrB, c2, meas)
	if len(xs) < 2 || len(ys) < 2 {
		return 1, nil
	}
	pooled := append(append(make([]float64, 0, len(xs)+len(ys)), xs...), ys...)
	res, err := stats.PermTests(ctx, len(xs), len(ys), perms, seed, runtime.GOMAXPROCS(0), 0,
		[]stats.PermTest{{Pooled: pooled, Stat: typ.TestStat()}})
	if err != nil {
		return 1, err
	}
	return res[0].P, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func indent(s string) string {
	out := "    "
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += "    "
		}
	}
	return out
}

// usageError reports a bad command line the way the flag package does:
// the message, the usage text, exit status 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "compare:", msg)
	flag.Usage()
	os.Exit(2)
}

// stopProfiles, when set, stops the running CPU profile; fatal and the
// normal exit path both call it so the profile survives error exits.
var stopProfiles func()

// finishProfiles closes out profiling at exit: stop the CPU profile and,
// when requested, write the heap profile after a GC settles the heap.
func finishProfiles(memPath string) {
	if stopProfiles != nil {
		stopProfiles()
		stopProfiles = nil
	}
	if memPath == "" {
		return
	}
	f, err := os.Create(memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare: memprofile:", err)
		return
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "compare: memprofile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "compare: memprofile:", err)
	}
}

func fatal(err error) {
	if stopProfiles != nil {
		stopProfiles()
		stopProfiles = nil
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}
