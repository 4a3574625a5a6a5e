package pipeline

import (
	"context"
	"fmt"
	"strings"
	"time"

	"comparenb/internal/engine"
	"comparenb/internal/governor"
	"comparenb/internal/insight"
	"comparenb/internal/metric"
	"comparenb/internal/notebook"
	"comparenb/internal/obs"
	"comparenb/internal/sqlgen"
	"comparenb/internal/table"
	"comparenb/internal/tap"
)

// Result is everything a notebook-generation run produced.
type Result struct {
	Relation *table.Relation
	Config   Config

	// Queries is the generated set Q (after dedup), deterministic order.
	Queries []ScoredQuery
	// Insights are the significant insights with final credibility.
	Insights []insight.Insight
	// Solution is the TAP solution; its Order indexes Queries.
	Solution tap.Solution
	// ExactStats is set when the exact solver ran.
	ExactStats *tap.ExactStats
	// TAP records how the solution was produced: which solver rung
	// answered, whether the run's TimeBudget forced a degradation, and
	// the certified optimality gap (exact runs only; heuristic solvers
	// report no gap).
	TAP TAPOutcome

	Timings Timings
	Counts  Counts

	// Degraded names every budget-driven concession the run made (empty
	// when nothing degraded — the byte-identity case).
	Degraded Degradation

	// cache is the run's partial-aggregate store; BuildNotebook answers
	// the verification queries from it instead of rescanning the base
	// relation. Nil for zero-value Results built outside Generate.
	cache *engine.CubeCache
}

// CacheStats returns the cube-cache counters, including any hits recorded
// after Generate (notebook verification queries). Zero value when the
// Result was not produced by Generate.
func (r *Result) CacheStats() engine.CacheStats {
	if r.cache == nil {
		return engine.CacheStats{}
	}
	return r.cache.Stats()
}

// Sequence returns the selected queries in notebook order.
func (r *Result) Sequence() []ScoredQuery {
	out := make([]ScoredQuery, len(r.Solution.Order))
	for i, qi := range r.Solution.Order {
		out[i] = r.Queries[qi]
	}
	return out
}

// Degradation is the run-level record of graceful degradation: which
// phases conceded anything to the resource budgets, and what exactly was
// cut. The zero value means the run was byte-identical to an unbudgeted
// one; reports serialise the fields with omitempty so that stays visible
// in the JSON too.
type Degradation struct {
	// Phases lists the degraded phases in pipeline order, drawn from
	// "stats", "hypo", "engine", "tap".
	Phases []string
	// PermsEffective is the smallest permutation count an early-stopped
	// test actually evaluated (0 = no test was truncated).
	PermsEffective int
	// PairsSkipped counts candidate (attribute, value pair) test jobs the
	// Shed rung dropped without testing.
	PairsSkipped int
	// HypoDropped counts significant insights cut by the hypothesis
	// phase's candidate cap.
	HypoDropped int
	// MemEvictions counts memory-budget admission actions of the cube
	// cache: evictions to make room plus refusals to cache at all.
	MemEvictions int
}

// Any reports whether the run degraded at all.
func (d Degradation) Any() bool { return len(d.Phases) > 0 }

// TAPOutcome records how the TAP solution was produced.
type TAPOutcome struct {
	// Solver names what actually answered: a SolverKind string for the
	// heuristic solvers, or one of the tap.Anytime* rung names for exact
	// runs ("exact", "exact-incumbent+2opt", "greedy+2opt").
	Solver string
	// Degraded is true when the time budget expired mid-search and a
	// heuristic rung of the anytime ladder finished the job.
	Degraded bool
	// Gap is the certified relative optimality gap (0 when provably
	// optimal or when a heuristic solver carries no certificate).
	Gap float64
	// TimedOut is true when any budget stopped the exact search.
	TimedOut bool
}

// Generate runs the full pipeline of Figure 1 over the relation: tests →
// significant insights → hypothesis-query evaluation → comparison-query
// set Q → TAP → ordered notebook content.
func Generate(rel *table.Relation, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), rel, cfg)
}

// GenerateContext is Generate with cooperative cancellation: cancelling
// ctx abandons the run at the next phase-safe checkpoint (a permutation
// stride, a cube shard, a worker-pool job, a branch-and-bound tick) and
// returns ctx's error with no partial Result. Cancellation is the hard
// stop; the soft, always-produce-a-notebook discipline is
// Config.TimeBudget. A ctx that is never cancelled changes nothing —
// every checkpoint only reads it.
func GenerateContext(ctx context.Context, rel *table.Relation, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rel.NumCatAttrs() < 2 {
		return nil, fmt.Errorf("pipeline: need at least 2 categorical attributes, have %d", rel.NumCatAttrs())
	}
	if rel.NumMeasures() < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 measure")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Relation: rel, Config: cfg}
	start := time.Now()
	// Observability: every run reports into a registry — the caller's
	// (cfg.Obs, exportable afterwards) or a private one — and the phases
	// below read it back as the single source of counter truth. The
	// registry never influences outputs; it only records them.
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	ctx = obs.NewContext(ctx, reg)
	runSp := obs.StartSpan(ctx, "run")
	defer runSp.End()
	// The governor splits the soft budget across the phases below; nil
	// (no TimeBudget) is the ungoverned, always-Full case.
	gov := governor.New(cfg.TimeBudget, start)
	gov.Instrument(reg)

	// Pre-processing: functional dependencies (footnote 2).
	fdPhase := obs.StartPhase(ctx, "phase/fd", "phase_fd")
	fds := engine.NewFDSet(engine.DetectFDsApprox(rel, cfg.FDMaxError))
	res.Timings.FD = fdPhase.End()
	cfg.logf("pipeline: FD pre-processing done in %v", res.Timings.FD)

	// Phase (i): statistical tests.
	gov.StartPhase(governor.Stats)
	statsPhase := obs.StartPhase(ctx, "phase/stats", "phase_stats")
	sig, tested, err := runStatTests(ctx, rel, cfg, gov)
	res.Timings.StatTests = statsPhase.End()
	if err != nil {
		reg.MarkInterrupted()
		return nil, err
	}
	reg.Counter("stats_insights_tested").Add(int64(tested))
	reg.Counter("stats_insights_significant").Add(int64(len(sig)))
	res.Counts.InsightsEnumerated = tested
	res.Counts.SignificantInsights = len(sig)
	cfg.logf("pipeline: %d insights tested, %d significant, in %v",
		tested, len(sig), res.Timings.StatTests)

	// Transitivity pruning (§3.3).
	if !cfg.DisableTransitivePruning {
		before := len(sig)
		sig = insight.PruneTransitive(sig)
		res.Counts.PrunedTransitive = before - len(sig)
		reg.Counter("stats_pruned_transitive").Add(int64(res.Counts.PrunedTransitive))
		cfg.logf("pipeline: transitivity pruned %d deducible insights", before-len(sig))
	}

	// Phase (ii): hypothesis-query evaluation on in-memory aggregates,
	// shared through the run's cube cache.
	gov.StartPhase(governor.Hypo)
	// A shared cache (cfg.Cache — the serving path) arrives configured and
	// instrumented by its owner; the run only reads and inserts, and its
	// per-run counter view is the delta over the run. A private cache is
	// created, bound to the run registry and budgeted here as before.
	var cacheBase engine.CacheStats
	if cfg.Cache != nil {
		res.cache = cfg.Cache
		cacheBase = res.cache.Stats()
	} else {
		res.cache = engine.NewCubeCache(cfg.CubeCacheBudget)
		res.cache.Instrument(reg)
		if cfg.MemBudget > 0 {
			res.cache.SetMemBudget(cfg.MemBudget)
		}
	}
	hypoPhase := obs.StartPhase(ctx, "phase/hypo", "phase_hypo")
	queries, final, counts, err := evalHypotheses(ctx, rel, cfg, fds, sig, res.cache, gov)
	res.Timings.HypoEval = hypoPhase.End()
	if err != nil {
		reg.MarkInterrupted()
		return nil, err
	}
	// Trim at the phase boundary (single-threaded): eviction decisions are
	// a pure function of the deterministic entry set, never of scheduling.
	res.cache.Trim()
	cs := res.cache.Stats()
	if cfg.Cache != nil {
		cs = cs.Delta(cacheBase)
	}
	res.Queries = queries
	res.Insights = final
	res.Counts.CubesBuilt = int(cs.Misses)
	res.Counts.SupportChecks = counts.SupportChecks
	res.Counts.QueriesGenerated = counts.QueriesGenerated
	res.Counts.CacheHits = int(cs.Hits)
	res.Counts.CacheRollups = int(cs.RollupHits)
	res.Counts.CacheMisses = int(cs.Misses)
	res.Counts.CacheEvictions = int(cs.Evictions)
	cfg.logf("pipeline: %d cubes built, cache %d hits / %d rollups / %d misses / %d evictions (%d B cached), %d support checks, |Q| = %d, in %v",
		res.Counts.CubesBuilt, cs.Hits, cs.RollupHits, cs.Misses, cs.Evictions, cs.Bytes,
		counts.SupportChecks, counts.QueriesGenerated, res.Timings.HypoEval)

	// TAP. The analysis phases ran (possibly degraded); the last phase's
	// budget share is 1, so its deadline is exactly start+TimeBudget —
	// bit-for-bit the pre-governor semantics — and the anytime ladder
	// turns an expiry into a feasible heuristic solution, not a failure.
	gov.StartPhase(governor.TAP)
	deadline := gov.Deadline(governor.TAP)
	inst := Instance(queries, cfg.Weights)
	res.TAP.Solver = cfg.Solver.String()
	tapPhase := obs.StartPhase(ctx, "phase/tap", "phase_tap")
	switch cfg.Solver {
	case SolverExact:
		any := tap.SolveAnytime(ctx, inst, float64(cfg.EpsT), cfg.EpsD, tap.ExactOptions{
			Timeout:  cfg.ExactTimeout,
			Deadline: deadline,
		})
		if any.Solver == tap.AnytimeCancelled {
			tapPhase.End()
			reg.MarkInterrupted()
			return nil, ctx.Err()
		}
		res.Solution = any.Solution
		res.ExactStats = &any.Stats
		res.TAP = TAPOutcome{
			Solver:   any.Solver,
			Degraded: any.Degraded,
			Gap:      any.Gap,
			TimedOut: any.Stats.TimedOut,
		}
		if any.Degraded {
			cfg.logf("pipeline: TAP budget expired after %d nodes; degraded to %s (gap ≤ %.2f%%)",
				any.Stats.Nodes, any.Solver, 100*any.Gap)
		}
	case SolverTopK:
		res.Solution = tap.TopK(inst, float64(cfg.EpsT))
	case SolverHeuristicPlus:
		res.Solution = tap.GreedyPlus(inst, float64(cfg.EpsT), cfg.EpsD)
	default:
		res.Solution = tap.Greedy(inst, float64(cfg.EpsT), cfg.EpsD)
	}
	res.Timings.TAP = tapPhase.End()
	res.Timings.Total = time.Since(start)
	reg.Timing("run_total").Observe(res.Timings.Total)
	cfg.logf("pipeline: %s TAP selected %d queries (interest %.3f) in %v",
		res.TAP.Solver, len(res.Solution.Order), res.Solution.TotalInterest, res.Timings.TAP)

	// Degradation record, read back from the registry the phases reported
	// into — the counters are the single source; this struct is the
	// report-friendly view. A phase is listed only when a concession had
	// an observable effect, so generously budgeted runs report nothing.
	pairsShed := int(reg.Counter("stats_pairs_shed").Value())
	hypoDropped := int(reg.Counter("hypo_candidates_dropped").Value())
	memEv := int(reg.Counter("engine_cache_admit_evictions").Value() +
		reg.Counter("engine_cache_admit_refusals").Value())
	res.Degraded = Degradation{
		PermsEffective: int(reg.Gauge("stats_perms_effective_min").Value()),
		PairsSkipped:   pairsShed,
		HypoDropped:    hypoDropped,
		MemEvictions:   memEv,
	}
	if reg.Gauge("stats_earlystop_engaged").Value() != 0 || pairsShed > 0 {
		res.Degraded.Phases = append(res.Degraded.Phases, "stats")
	}
	if hypoDropped > 0 {
		res.Degraded.Phases = append(res.Degraded.Phases, "hypo")
	}
	if memEv > 0 {
		res.Degraded.Phases = append(res.Degraded.Phases, "engine")
	}
	if res.TAP.Degraded {
		res.Degraded.Phases = append(res.Degraded.Phases, "tap")
	}
	if res.Degraded.Any() {
		cfg.logf("pipeline: degraded phases %v (perms_effective=%d pairs_skipped=%d hypo_dropped=%d mem_evictions=%d)",
			res.Degraded.Phases, res.Degraded.PermsEffective, pairsShed, hypoDropped, memEv)
	}
	return res, nil
}

// Instance builds the TAP instance over a query set: §4.2's uniform costs
// and the weighted Hamming distance.
func Instance(queries []ScoredQuery, w metric.Weights) *tap.Instance {
	interest := make([]float64, len(queries))
	cost := make([]float64, len(queries))
	for i, q := range queries {
		interest[i] = q.Interest
		cost[i] = 1
	}
	return &tap.Instance{
		Interest: interest,
		Cost:     cost,
		Dist: func(i, j int) float64 {
			return metric.Distance(queries[i].Query, queries[j].Query, w)
		},
	}
}

// BuildNotebook renders the selected sequence as a comparison notebook:
// for each query a Markdown cell describing the insights it evidences and
// a SQL code cell (the Figure 2 form), introduced by a title and a summary
// cell.
func BuildNotebook(res *Result) *notebook.Notebook {
	rel := res.Relation
	nb := notebook.New("Comparison notebook — " + rel.Name())
	nb.AddMarkdown(fmt.Sprintf(
		"Auto-generated starting point for exploring `%s` (%d rows). "+
			"%d significant comparison insights were found; the %d queries below "+
			"were selected by the %s TAP solver (ε_t=%d, ε_d=%.2f).",
		rel.Name(), rel.NumRows(), len(res.Insights), len(res.Solution.Order),
		res.Config.Solver, res.Config.EpsT, res.Config.EpsD))
	for step, sq := range res.Sequence() {
		md := fmt.Sprintf("## Step %d — %s\n", step+1, sq.Query.Describe(rel))
		for _, ins := range sq.Supported {
			md += fmt.Sprintf("\n- %s", ins.Describe(rel))
		}
		md += fmt.Sprintf("\n\nInterestingness: %.4f", sq.Interest)
		nb.AddMarkdown(md)
		nb.AddCode(sqlgen.Comparison(rel, sqlgen.Params{
			GroupBy: sq.Query.GroupBy,
			SelAttr: sq.Query.Attr,
			Val:     sq.Query.Val,
			Val2:    sq.Query.Val2,
			Meas:    sq.Query.Meas,
			Agg:     sq.Query.Agg,
		}))
		// Like the paper's Figure 2, show the comparison result next to
		// the query (truncated for wide group-bys). The run's cube cache
		// answers this without rescanning the base relation.
		nb.AddMarkdown(res.resultTable(sq.Query, 15))
		if res.Config.IncludeHypotheses {
			for _, ins := range sq.Supported {
				nb.AddMarkdown(fmt.Sprintf("Hypothesis query (%s):", ins.Type))
				nb.AddCode(HypothesisSQL(rel, sq, ins))
			}
		}
	}
	return nb
}

// resultTable renders the comparison query's result from the run's cube
// cache: an exact or rolled-up pair cube answers it in O(groups). A Result
// without a cache builds the pair cube from the base relation instead.
func (r *Result) resultTable(q insight.Query, maxRows int) string {
	attrs := []int{q.GroupBy, q.Attr}
	// The background context never cancels, so the error is impossible.
	var pc *engine.Cube
	if r.cache != nil {
		pc, _ = r.cache.GetOrBuild(context.Background(), r.Relation, attrs, r.Config.threads())
	} else {
		pc, _ = engine.BuildCube(context.Background(), r.Relation, attrs, r.Config.threads())
	}
	res := engine.CompareFromCube(pc, q.GroupBy, q.Attr, q.Val, q.Val2, q.Meas, q.Agg)
	return ResultTable(r.Relation, q, res, maxRows)
}

// ResultTable renders a computed comparison result as a Markdown table
// headed by A and the two selected values of B, keeping at most maxRows
// rows (0 = all).
func ResultTable(rel *table.Relation, q insight.Query, res *engine.ComparisonResult, maxRows int) string {
	left := rel.Value(q.Attr, q.Val)
	right := rel.Value(q.Attr, q.Val2)
	var sb strings.Builder
	fmt.Fprintf(&sb, "| %s | %s | %s |\n|---|---|---|\n", rel.CatName(q.GroupBy), left, right)
	n := res.Len()
	truncated := false
	if maxRows > 0 && n > maxRows {
		n = maxRows
		truncated = true
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "| %s | %g | %g |\n",
			rel.Value(q.GroupBy, res.Groups[i]), res.Left[i], res.Right[i])
	}
	if truncated {
		fmt.Fprintf(&sb, "\n_%d more rows_", res.Len()-n)
	}
	return sb.String()
}

// ComparisonSQL renders a comparison query as the Figure-2 SQL text.
func ComparisonSQL(rel *table.Relation, q insight.Query) string {
	return sqlgen.Comparison(rel, sqlgen.Params{
		GroupBy: q.GroupBy,
		SelAttr: q.Attr,
		Val:     q.Val,
		Val2:    q.Val2,
		Meas:    q.Meas,
		Agg:     q.Agg,
	})
}

// HypothesisSQL renders the hypothesis query postulating the given insight
// for a scored query, for tooling and notebook appendices.
func HypothesisSQL(rel *table.Relation, sq ScoredQuery, ins insight.Insight) string {
	kind := sqlgen.MeanGreater
	switch ins.Type {
	case insight.VarianceGreater:
		kind = sqlgen.VarianceGreater
	case insight.MedianGreater:
		kind = sqlgen.MedianGreater
	}
	return sqlgen.Hypothesis(rel, sqlgen.Params{
		GroupBy: sq.Query.GroupBy,
		SelAttr: sq.Query.Attr,
		Val:     sq.Query.Val,
		Val2:    sq.Query.Val2,
		Meas:    sq.Query.Meas,
		Agg:     sq.Query.Agg,
	}, kind)
}
