package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/tap"
	"comparenb/internal/testutil"
)

// budgetConfig mirrors the golden test's deterministic configuration but
// with the exact solver, so the anytime ladder is on the hot path.
func budgetConfig(threads int) Config {
	cfg := NewConfig()
	cfg.Perms = 200
	cfg.Seed = 42
	cfg.Threads = threads
	cfg.EpsT = 3
	cfg.EpsD = 2
	cfg.Solver = SolverExact
	return cfg
}

func renderMarkdown(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := BuildNotebook(res).WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportJSON serialises the run report with the wall-clock-dependent
// fields zeroed, so two runs of the same configuration compare equal.
func reportJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	rep := res.Report()
	rep.Timings = ReportTimings{}
	rep.Config.TimeBudgetMillis = 0
	rep.Config.MemBudgetBytes = 0
	// The recorded thread count legitimately differs between runs; what
	// must not differ is everything computed.
	rep.Config.Threads = 0
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenerateGenerousBudgetByteIdentical is the acceptance check for the
// soft budgets: a TimeBudget the run never exhausts — with the governor
// splitting it across every phase — and a MemBudget the cache never hits
// must change nothing: notebook and report bytes equal the unbudgeted
// run's at every thread count, and every thread count agrees with serial.
func TestGenerateGenerousBudgetByteIdentical(t *testing.T) {
	rel := goldenRelation()
	var refNB, refRep []byte
	for _, threads := range []int{1, 2, 8} {
		plain, err := Generate(rel, budgetConfig(threads))
		if err != nil {
			t.Fatalf("threads=%d unbudgeted: %v", threads, err)
		}
		cfg := budgetConfig(threads)
		cfg.TimeBudget = time.Hour
		cfg.MemBudget = 1 << 33
		budgeted, err := GenerateContext(context.Background(), rel, cfg)
		if err != nil {
			t.Fatalf("threads=%d budgeted: %v", threads, err)
		}
		if budgeted.TAP.Degraded {
			t.Fatalf("threads=%d: one-hour budget degraded the solver", threads)
		}
		if budgeted.Degraded.Any() {
			t.Fatalf("threads=%d: generous budgets recorded degradation %+v", threads, budgeted.Degraded)
		}
		if budgeted.TAP.Solver != tap.AnytimeExact {
			t.Fatalf("threads=%d: solver = %q, want %q", threads, budgeted.TAP.Solver, tap.AnytimeExact)
		}
		nbPlain, nbBudget := renderMarkdown(t, plain), renderMarkdown(t, budgeted)
		if !bytes.Equal(nbPlain, nbBudget) {
			t.Errorf("threads=%d: budgeted notebook differs from unbudgeted", threads)
		}
		repPlain, repBudget := reportJSON(t, plain), reportJSON(t, budgeted)
		if !bytes.Equal(repPlain, repBudget) {
			t.Errorf("threads=%d: budgeted report differs from unbudgeted", threads)
		}
		if threads == 1 {
			refNB, refRep = nbPlain, repPlain
			continue
		}
		if !bytes.Equal(nbPlain, refNB) {
			t.Errorf("threads=%d: notebook differs from serial run", threads)
		}
		if !bytes.Equal(repPlain, refRep) {
			t.Errorf("threads=%d: report differs from serial run", threads)
		}
	}
}

// TestReportBudgetFieldsOmittedWhenUnbudgeted locks the serialisation
// contract: reports from unbudgeted, non-degraded runs must not mention
// the budget machinery at all.
func TestReportBudgetFieldsOmittedWhenUnbudgeted(t *testing.T) {
	res, err := Generate(goldenRelation(), budgetConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"time_budget_ms", "tap_solver", "tap_degraded", "tap_gap",
		"mem_budget", "phase_degraded", "perms_effective", "pairs_skipped",
		"hypo_dropped", "mem_evictions", "admit_evictions", "admit_refusals",
	} {
		if strings.Contains(buf.String(), field) {
			t.Errorf("unbudgeted report contains %q:\n%s", field, buf.String())
		}
	}
}

// TestGenerateTightBudgetDegradesFeasibly drives the whole pipeline with a
// budget that is already spent when TAP starts: the run must still finish,
// hand back a feasible notebook from a heuristic rung, and say so in the
// report.
func TestGenerateTightBudgetDegradesFeasibly(t *testing.T) {
	cfg := budgetConfig(2)
	cfg.TimeBudget = time.Nanosecond
	res, err := GenerateContext(context.Background(), goldenRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TAP.Degraded {
		t.Fatalf("nanosecond budget did not degrade: %+v", res.TAP)
	}
	if res.TAP.Solver != tap.AnytimeIncumbent2Opt && res.TAP.Solver != tap.AnytimeGreedy2Opt {
		t.Errorf("degraded solver = %q, want a heuristic rung", res.TAP.Solver)
	}
	if res.ExactStats == nil || !res.ExactStats.TimedOut {
		t.Errorf("exact stats should record the timeout: %+v", res.ExactStats)
	}
	if res.TAP.Gap < 0 || res.TAP.Gap != res.TAP.Gap {
		t.Errorf("degraded gap = %v, want a finite non-negative bound", res.TAP.Gap)
	}
	inst := Instance(res.Queries, cfg.Weights)
	if err := inst.Feasible(res.Solution, float64(cfg.EpsT), cfg.EpsD); err != nil {
		t.Errorf("degraded solution infeasible: %v", err)
	}
	if nb := renderMarkdown(t, res); len(nb) == 0 {
		t.Error("degraded run rendered an empty notebook")
	}

	rep := res.Report()
	if !rep.TAPDegraded || rep.TAPSolver != res.TAP.Solver {
		t.Errorf("report does not name the degradation: solver=%q degraded=%v", rep.TAPSolver, rep.TAPDegraded)
	}
	if rep.TAPGap == nil || *rep.TAPGap != res.TAP.Gap {
		t.Errorf("report gap %v != outcome gap %v", rep.TAPGap, res.TAP.Gap)
	}
	if rep.Config.TimeBudgetMillis <= 0 {
		t.Errorf("report omits the configured budget: %v", rep.Config.TimeBudgetMillis)
	}
	var js map[string]any
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	if js["tap_solver"] != res.TAP.Solver {
		t.Errorf("serialised tap_solver = %v, want %q", js["tap_solver"], res.TAP.Solver)
	}
}

// checkCancelledRun asserts the hard-cancellation contract: ctx's error
// comes back, no partial Result escapes, and every worker goroutine
// drains (testutil.WaitGoroutinesSettle is the shared leak check).
func checkCancelledRun(t *testing.T, res *Result, err error, before int) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial Result")
	}
	testutil.WaitGoroutinesSettle(t, before)
}

func TestGenerateContextPreCancelled(t *testing.T) {
	ds := tinyDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	res, err := GenerateContext(ctx, ds.Rel, testConfig())
	checkCancelledRun(t, res, err, before)
}

func TestGenerateContextCancelMidStats(t *testing.T) {
	ds := tinyDataset(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Set(faultinject.StatsPermBlock, faultinject.OnCall(3, cancel))()
	res, err := GenerateContext(ctx, ds.Rel, testConfig())
	checkCancelledRun(t, res, err, before)
}

func TestGenerateContextCancelMidCubeBuild(t *testing.T) {
	ds := tinyDataset(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Set(faultinject.EngineCubeShard, faultinject.OnCall(1, cancel))()
	res, err := GenerateContext(ctx, ds.Rel, testConfig())
	checkCancelledRun(t, res, err, before)
}

func TestGenerateContextCancelMidSearch(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.Solver = SolverExact
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Set(faultinject.TapSearchTick, faultinject.OnCall(1, cancel))()
	res, err := GenerateContext(ctx, ds.Rel, cfg)
	checkCancelledRun(t, res, err, before)
}

func TestValidateRejectsNegativeTimeBudget(t *testing.T) {
	cfg := testConfig()
	cfg.TimeBudget = -time.Second
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "TimeBudget") {
		t.Errorf("Validate(-1s budget) = %v, want TimeBudget error", err)
	}
}
