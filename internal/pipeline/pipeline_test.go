package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"comparenb/internal/datagen"
	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/sampling"
)

// testConfig is a fast configuration for unit tests.
func testConfig() Config {
	c := NewConfig()
	c.Perms = 150
	c.EpsT = 5
	c.EpsD = 2.0
	c.Seed = 1
	c.Threads = 2
	return c
}

func tinyDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Tiny(7, 1500)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateEndToEnd(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.InsightsEnumerated == 0 {
		t.Fatal("no insights tested")
	}
	if res.Counts.SignificantInsights == 0 {
		t.Fatal("no significant insights on a dataset with strong planted effects")
	}
	if len(res.Queries) == 0 {
		t.Fatal("no comparison queries generated")
	}
	if len(res.Solution.Order) == 0 {
		t.Fatal("empty notebook")
	}
	if len(res.Solution.Order) > testConfig().EpsT {
		t.Errorf("notebook has %d queries, budget %d", len(res.Solution.Order), testConfig().EpsT)
	}
	inst := Instance(res.Queries, testConfig().Weights)
	if err := inst.Feasible(res.Solution, float64(testConfig().EpsT), testConfig().EpsD); err != nil {
		t.Errorf("solution infeasible: %v", err)
	}
	// Interests must be positive and queries deduped per (B,val,val',M,agg).
	type dk struct {
		attr      int
		val, val2 int32
		meas      int
		agg       string
	}
	seen := map[dk]bool{}
	for _, q := range res.Queries {
		if q.Interest < 0 {
			t.Errorf("negative interest %v", q.Interest)
		}
		k := dk{q.Query.Attr, q.Query.Val, q.Query.Val2, q.Query.Meas, q.Query.Agg.String()}
		if seen[k] {
			t.Errorf("dedup failed: two queries share %+v", k)
		}
		seen[k] = true
	}
}

// TestGenerateFindsPlantedInsights checks recall of the ground truth: a
// decent share of checkable planted mean effects must be detected.
func TestGenerateFindsPlantedInsights(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := map[insight.Key]bool{}
	for _, ins := range res.Insights {
		found[ins.Key()] = true
	}
	// Transitivity pruning removes deducible plants, so check: each
	// planted insight is found directly OR its attribute has ≥1 finding.
	direct, checkable := 0, 0
	for _, pl := range ds.Planted {
		if pl.Type != insight.MeanGreater {
			continue
		}
		c1, ok1 := ds.Rel.CodeOf(pl.Attr, pl.Val)
		c2, ok2 := ds.Rel.CodeOf(pl.Attr, pl.Val2)
		if !ok1 || !ok2 {
			continue
		}
		checkable++
		if found[insight.Key{Meas: pl.Meas, Attr: pl.Attr, Val: c1, Val2: c2, Type: pl.Type}] {
			direct++
		}
	}
	if checkable == 0 {
		t.Fatal("no checkable planted insights")
	}
	if ratio := float64(direct) / float64(checkable); ratio < 0.3 {
		t.Errorf("direct planted recall = %.2f (%d/%d), suspiciously low", ratio, direct, checkable)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	a, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 7 // different scheduling must not change the outcome
	b, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("|Q| differs: %d vs %d", len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		if a.Queries[i].Query != b.Queries[i].Query {
			t.Fatalf("query %d differs: %+v vs %+v", i, a.Queries[i].Query, b.Queries[i].Query)
		}
		if a.Queries[i].Interest != b.Queries[i].Interest {
			t.Fatalf("interest %d differs", i)
		}
	}
	if !reflect.DeepEqual(a.Solution.Order, b.Solution.Order) {
		t.Errorf("notebook order differs: %v vs %v", a.Solution.Order, b.Solution.Order)
	}
}

// TestWSCMatchesNaive: Algorithm 2 is a pure evaluation optimization — the
// generated query set must be identical with and without it.
func TestWSCMatchesNaive(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	naive, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseWSC = true
	wsc, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Queries) != len(wsc.Queries) {
		t.Fatalf("|Q| differs: naive %d vs WSC %d", len(naive.Queries), len(wsc.Queries))
	}
	for i := range naive.Queries {
		if naive.Queries[i].Query != wsc.Queries[i].Query {
			t.Errorf("query %d differs: %+v vs %+v", i, naive.Queries[i].Query, wsc.Queries[i].Query)
		}
	}
	if wsc.Counts.CubesBuilt > naive.Counts.CubesBuilt {
		t.Errorf("WSC built %d cubes, naive %d — merging should not need more",
			wsc.Counts.CubesBuilt, naive.Counts.CubesBuilt)
	}
}

// TestWSCMemoryBudgetFallback: an absurdly small budget must trigger the
// §5.2.2 fallback to per-pair cubes, with identical results: the WSC run
// builds exactly the cubes of the per-pair run under the same budget, not
// the cover's on top of them.
func TestWSCMemoryBudgetFallback(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.UseWSC = true
	cfg.MemBudget = 1 // bytes
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.MemBudget = 1
	plain, err := Generate(ds.Rel, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != len(plain.Queries) {
		t.Errorf("fallback |Q| = %d, naive %d", len(res.Queries), len(plain.Queries))
	}
	if res.Counts.CubesBuilt != plain.Counts.CubesBuilt {
		t.Errorf("fallback built %d cubes, per-pair run %d: the cover was built",
			res.Counts.CubesBuilt, plain.Counts.CubesBuilt)
	}
}

func TestSamplingVariantsRun(t *testing.T) {
	ds := tinyDataset(t)
	for _, s := range []sampling.Strategy{sampling.Random, sampling.Unbalanced} {
		cfg := testConfig()
		cfg.Sampling = s
		cfg.SampleFrac = 0.5
		res, err := Generate(ds.Rel, cfg)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Counts.SignificantInsights == 0 {
			t.Errorf("%v sampling found nothing at 50%%", s)
		}
	}
}

func TestExactSolverBeatsHeuristicInterest(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.EpsT = 4
	heur, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = SolverExact
	exact, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.ExactStats == nil {
		t.Fatal("exact stats missing")
	}
	if heur.Solution.TotalInterest > exact.Solution.TotalInterest+1e-9 {
		t.Errorf("heuristic %v beat exact %v", heur.Solution.TotalInterest, exact.Solution.TotalInterest)
	}
}

func TestCredibilityBounds(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Rel.NumCatAttrs()
	for _, ins := range res.Insights {
		if ins.NumHypo <= 0 || ins.NumHypo > n-1 {
			t.Errorf("NumHypo = %d outside (0, %d]", ins.NumHypo, n-1)
		}
		if ins.Credibility < 0 || ins.Credibility > ins.NumHypo {
			t.Errorf("credibility %d outside [0, %d]", ins.Credibility, ins.NumHypo)
		}
		if ins.Sig < 1-testConfig().Alpha-1e-9 {
			t.Errorf("kept insight with sig %v < %v", ins.Sig, 1-testConfig().Alpha)
		}
	}
	// Every retained query must evidence at least one insight. (Its
	// credibility may still be 0: credibility counts the canonical
	// avg-agg hypothesis queries only, while the query itself may support
	// the insight through another aggregate.)
	for _, q := range res.Queries {
		if len(q.Supported) == 0 {
			t.Error("query retained without supported insights")
		}
		if q.Query.Agg == engine.Avg {
			for _, ins := range q.Supported {
				if ins.Credibility == 0 {
					t.Errorf("avg query supports an insight with credibility 0: %+v", ins)
				}
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.Perms = 0
	if _, err := Generate(ds.Rel, cfg); err == nil {
		t.Error("Perms=0: want error")
	}
}

// TestResultTableWithoutCache: a Result that carries no cube cache still
// renders its result tables, from a pair cube built for the query, and
// they match the tables the run's cache answers.
func TestResultTableWithoutCache(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bare := &Result{Relation: res.Relation, Config: res.Config}
	for _, sq := range res.Sequence() {
		if got, want := bare.resultTable(sq.Query, 15), res.resultTable(sq.Query, 15); got != want {
			t.Errorf("%s: cache-less table\n%s\nwant\n%s", sq.Query.Describe(ds.Rel), got, want)
		}
	}
}

func TestBuildNotebook(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	nb := BuildNotebook(res)
	if nb.NumQueries() != len(res.Solution.Order) {
		t.Errorf("notebook has %d code cells, want %d", nb.NumQueries(), len(res.Solution.Order))
	}
	var buf bytes.Buffer
	if err := nb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "select t1.") || !strings.Contains(out, "Interestingness") {
		t.Error("notebook markdown missing expected content")
	}
	var ipynb bytes.Buffer
	if err := nb.WriteIPYNB(&ipynb); err != nil {
		t.Fatal(err)
	}
}

func TestHypothesisSQL(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sq := res.Queries[0]
	sql := HypothesisSQL(ds.Rel, sq, sq.Supported[0])
	if !strings.Contains(sql, "hypothesis") || !strings.Contains(sql, "having") {
		t.Errorf("hypothesis SQL malformed:\n%s", sql)
	}
}

func TestTimingsPopulated(t *testing.T) {
	ds := tinyDataset(t)
	res, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.StatTests <= 0 || tm.HypoEval <= 0 || tm.Total <= 0 {
		t.Errorf("timings not populated: %+v", tm)
	}
	if tm.Total < tm.StatTests+tm.HypoEval {
		t.Errorf("total %v < stats %v + hypo %v", tm.Total, tm.StatTests, tm.HypoEval)
	}
}

func TestParallelForCoversAllJobs(t *testing.T) {
	ctx := context.Background()
	for _, threads := range []int{0, 1, 3, 16} {
		var sum atomic.Int64
		err := parallelForCtx(ctx, threads, 100, func(_ context.Context, i int) error {
			sum.Add(int64(i))
			return nil
		})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if sum.Load() != 4950 {
			t.Errorf("threads=%d: sum = %d, want 4950", threads, sum.Load())
		}
	}
	err := parallelForCtx(ctx, 4, 0, func(context.Context, int) error {
		t.Error("fn called for n=0")
		return nil
	})
	if err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestParallelForCtxReportsSmallestIndexError(t *testing.T) {
	for _, threads := range []int{1, 4} {
		err := parallelForCtx(context.Background(), threads, 50, func(_ context.Context, i int) error {
			if i%7 == 3 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("threads=%d: err = %v, want job 3 failed", threads, err)
		}
	}
}

func TestParallelForCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 4} {
		called := atomic.Int64{}
		err := parallelForCtx(ctx, threads, 20, func(_ context.Context, i int) error {
			called.Add(1)
			return nil
		})
		if err != context.Canceled {
			t.Errorf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
		if called.Load() != 0 {
			t.Errorf("threads=%d: %d jobs ran under a pre-cancelled ctx", threads, called.Load())
		}
	}
}

func TestJobSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := -2; i < 1000; i++ {
		s := jobSeed(42, i)
		if s < 0 {
			t.Fatalf("negative seed %d", s)
		}
		if seen[s] {
			t.Fatalf("seed collision at job %d", i)
		}
		seen[s] = true
	}
}

func TestPresetNames(t *testing.T) {
	cases := map[string]Config{
		"Naive-exact":         NaiveExact(10, 1),
		"Naive-approx":        NaiveApprox(10, 1),
		"WSC-approx":          WSCApprox(10, 1),
		"WSC-unb-approx":      WSCUnbApprox(10, 1, 0.2),
		"WSC-rand-approx":     WSCRandApprox(10, 1, 0.4),
		"WSC-approx-sig":      WSCApproxSig(10, 1),
		"WSC-approx-sig-cred": WSCApproxSigCred(10, 1),
	}
	for want, cfg := range cases {
		if cfg.Name != want {
			t.Errorf("preset name = %q, want %q", cfg.Name, want)
		}
	}
	if !WSCUnbApprox(10, 1, 0.2).UseWSC || WSCUnbApprox(10, 1, 0.2).Sampling != sampling.Unbalanced {
		t.Error("WSC-unb-approx preset wrong")
	}
	if NaiveExact(10, 1).Solver != SolverExact {
		t.Error("Naive-exact must use the exact solver")
	}
	sig := WSCApproxSig(10, 1)
	if sig.Interest.UseConciseness || sig.Interest.UseCredibility {
		t.Error("sig-only variant must disable conciseness and credibility")
	}
}

func TestIncludeHypothesesAndLogf(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.IncludeHypotheses = true
	var lines []string
	cfg.Logf = func(format string, args ...any) {
		lines = append(lines, format)
	}
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 4 {
		t.Errorf("Logf called %d times, want one per phase", len(lines))
	}
	nb := BuildNotebook(res)
	// With hypotheses included there are more code cells than selected
	// queries (each supported insight adds one).
	if nb.NumQueries() <= len(res.Solution.Order) {
		t.Errorf("hypothesis cells missing: %d code cells for %d queries",
			nb.NumQueries(), len(res.Solution.Order))
	}
	var buf strings.Builder
	if err := nb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "as hypothesis") {
		t.Error("hypothesis SQL missing from notebook")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Perms = 0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.EpsT = 0 },
		func(c *Config) { c.EpsD = -1 },
		func(c *Config) { c.SampleFrac = 2 },
		func(c *Config) { c.Sampling = sampling.Random; c.SampleFrac = 0 },
		func(c *Config) { c.Perms = 5; c.Alpha = 0.05 }, // p-floor unreachable
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
