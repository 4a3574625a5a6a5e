package pipeline

import (
	"context"
	"math/rand"
	"sort"

	"comparenb/internal/cover"
	"comparenb/internal/engine"
	"comparenb/internal/governor"
	"comparenb/internal/insight"
	"comparenb/internal/metric"
	"comparenb/internal/obs"
	"comparenb/internal/table"
)

// ScoredQuery is a comparison query retained in Q, with the insights it
// evidences and its §4.2 interestingness.
type ScoredQuery struct {
	Query    insight.Query
	Interest float64
	// Theta is θ_q (tuples aggregated), Gamma is γ_q (groups in the
	// result) — the conciseness inputs.
	Theta, Gamma int
	// Supported are the insights this query supports, with final
	// significance and credibility.
	Supported []insight.Insight
}

// hypoOutcome is the per-(insight, grouping attribute) evaluation result.
type hypoOutcome struct {
	supportedAggs []engine.Agg
	// avgSupports records whether the canonical hypothesis query (agg =
	// avg) supports the insight — the Def. 3.11 credibility unit.
	avgSupports  bool
	theta, gamma int
}

// hypoCandidateCap returns the degradation ladder's cap on the number of
// significant insights the hypothesis phase evaluates (0 = uncapped).
// Both rungs keep enough candidates to fill an EpsT-query notebook with
// headroom for dedup; Shed keeps the bare minimum.
func hypoCandidateCap(level governor.Level, epsT int) int {
	switch level {
	case governor.Degrade:
		c := 2 * epsT
		if c < 16 {
			c = 16
		}
		return c
	case governor.Shed:
		c := epsT
		if c < 4 {
			c = 4
		}
		return c
	default:
		return 0
	}
}

// capCandidates keeps the top-k insights by (significance desc, key asc)
// while preserving the input's deterministic key order, returning the
// kept slice and the number dropped. The selection is a pure function of
// the insight list, so a capped run is reproducible even though *whether*
// capping engaged depended on the wall clock.
func capCandidates(sig []insight.Insight, k int) ([]insight.Insight, int) {
	if k <= 0 || len(sig) <= k {
		return sig, 0
	}
	order := make([]int, len(sig))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := sig[order[x]], sig[order[y]]
		if a.Sig > b.Sig {
			return true
		}
		if a.Sig < b.Sig {
			return false
		}
		return lessKey(a.Key(), b.Key())
	})
	keep := make([]bool, len(sig))
	for _, i := range order[:k] {
		keep[i] = true
	}
	kept := make([]insight.Insight, 0, k)
	for i, ins := range sig {
		if keep[i] {
			kept = append(kept, ins)
		}
	}
	return kept, len(sig) - k
}

// evalHypotheses runs lines 5–17 of Algorithm 1 with the §5.2
// optimizations: it evaluates hypothesis queries from in-memory partial
// aggregates (bounded 2-group-bys, or Algorithm 2's merged group-by sets
// when cfg.UseWSC), computes credibility, scores interest, and applies the
// same-insights dedup. Support is always checked on the full relation —
// sampling only ever accelerates the statistical tests. Cancelling ctx
// aborts the phase at the next cube or job checkpoint with ctx's error;
// a live ctx never changes the result.
//
// gov (nil = ungoverned) drives the phase's degradation ladder, asked
// once on entry: under pressure the candidate set is capped to the
// hypoCandidateCap top insights (the hypo_candidates_dropped counter
// reports how many were cut) — a whole-phase decision rather than
// per-job, because each candidate's cost is dominated by cube
// availability, which is shared.
func evalHypotheses(ctx context.Context, rel *table.Relation, cfg Config, fds *engine.FDSet, sig []insight.Insight, cache *engine.CubeCache, gov *governor.Governor) ([]ScoredQuery, []insight.Insight, Counts, error) {
	var counts Counts
	n := rel.NumCatAttrs()
	reg := obs.FromContext(ctx)

	level := cfg.forceHypoLevel
	if level == governor.Full {
		level = gov.Admit(governor.Hypo, 0, 0)
	}
	sig, dropped := capCandidates(sig, hypoCandidateCap(level, cfg.EpsT))
	if dropped > 0 {
		reg.Counter("hypo_candidates_dropped").Add(int64(dropped))
	}

	// Valid grouping attributes per selection attribute (FD pre-pruning).
	validA := make([][]int, n)
	for b := 0; b < n; b++ {
		for a := 0; a < n; a++ {
			if a != b && !fds.MeaninglessPair(a, b) {
				validA[b] = append(validA[b], a)
			}
		}
	}

	// Needed 2-group-by sets.
	pairSet := map[cover.Pair]bool{}
	for _, ins := range sig {
		for _, a := range validA[ins.Attr] {
			pairSet[cover.NewPair(a, ins.Attr)] = true
		}
	}
	var needed []cover.Pair
	for p := range pairSet {
		needed = append(needed, p)
	}
	sort.Slice(needed, func(i, j int) bool {
		if needed[i].A != needed[j].A {
			return needed[i].A < needed[j].A
		}
		return needed[i].B < needed[j].B
	})

	pairCubes, err := buildPairCubes(ctx, rel, cfg, needed, cache)
	if err != nil {
		return nil, nil, counts, err
	}

	// Evaluate every (insight, grouping attribute) combination. Each
	// grouping attribute's value order is sorted once for the phase.
	type job struct {
		insIdx int
		attrA  int
	}
	var jobs []job
	rank := make([][]int32, n)
	for ii, ins := range sig {
		for _, a := range validA[ins.Attr] {
			jobs = append(jobs, job{insIdx: ii, attrA: a})
			if rank[a] == nil {
				rank[a] = rel.SortedDomain(a)
			}
		}
	}
	results := make([]hypoOutcome, len(jobs))
	err = parallelForCtx(ctx, cfg.threads(), len(jobs), func(jctx context.Context, ji int) error {
		sp := obs.StartSpan(jctx, "hypo/eval")
		defer sp.End()
		j := jobs[ji]
		ins := sig[j.insIdx]
		pc := pairCubes[cover.NewPair(j.attrA, ins.Attr)]
		results[ji] = evalHypothesis(pc, j.attrA, rank[j.attrA], ins)
		return nil
	})
	if err != nil {
		return nil, nil, counts, err
	}
	counts.SupportChecks = len(jobs) * len(engine.AllAggs)
	reg.Counter("hypo_support_checks").Add(int64(counts.SupportChecks))

	// Credibility per insight (Def. 3.11): one hypothesis query per
	// grouping attribute (canonical agg = avg), or the ∃agg ablation.
	credOf := make([]int, len(sig))
	for ji, j := range jobs {
		supports := results[ji].avgSupports
		if cfg.CredibilityAggExists {
			supports = len(results[ji].supportedAggs) > 0
		}
		if supports {
			credOf[j.insIdx]++
		}
	}
	final := make([]insight.Insight, len(sig))
	for i, ins := range sig {
		ins.Credibility = credOf[i]
		ins.NumHypo = len(validA[ins.Attr])
		final[i] = ins
	}

	// Assemble queries: one per (A, B, val, val', M, agg) that supports at
	// least one insight.
	type qacc struct {
		theta, gamma int
		supported    []insight.Insight
	}
	nSupported := 0
	for _, r := range results {
		nSupported += len(r.supportedAggs)
	}
	accum := make(map[insight.Query]*qacc, nSupported)
	for ji, j := range jobs {
		ins := final[j.insIdx]
		for _, agg := range results[ji].supportedAggs {
			q := insight.Query{
				GroupBy: j.attrA, Attr: ins.Attr,
				Val: ins.Val, Val2: ins.Val2,
				Meas: ins.Meas, Agg: agg,
			}
			acc := accum[q]
			if acc == nil {
				acc = &qacc{theta: results[ji].theta, gamma: results[ji].gamma}
				accum[q] = acc
			}
			acc.supported = append(acc.supported, ins)
		}
	}

	// Score and dedup (Algorithm 1 lines 14–17): among queries equal up to
	// the grouping attribute, keep the most interesting.
	type dedupKey struct {
		attr      int
		val, val2 int32
		meas      int
		agg       engine.Agg
	}
	best := make(map[dedupKey]ScoredQuery, len(accum))
	for q, acc := range accum {
		sort.Slice(acc.supported, func(a, b int) bool { return lessKey(acc.supported[a].Key(), acc.supported[b].Key()) })
		sq := ScoredQuery{
			Query:     q,
			Theta:     acc.theta,
			Gamma:     acc.gamma,
			Supported: acc.supported,
			Interest:  metric.Interest(acc.theta, acc.gamma, acc.supported, cfg.Interest),
		}
		k := dedupKey{attr: q.Attr, val: q.Val, val2: q.Val2, meas: q.Meas, agg: q.Agg}
		cur, ok := best[k]
		// Exact float equality is the point here: the tie-break must pick
		// the same winner regardless of map iteration order.
		if !ok || sq.Interest > cur.Interest ||
			(sq.Interest == cur.Interest && q.GroupBy < cur.Query.GroupBy) { //nolint:floateq // deterministic tie-break
			best[k] = sq
		}
	}
	queries := make([]ScoredQuery, 0, len(best))
	for _, sq := range best {
		queries = append(queries, sq)
	}
	sort.Slice(queries, func(a, b int) bool { return lessQuery(queries[a].Query, queries[b].Query) })
	counts.QueriesGenerated = len(queries)
	reg.Counter("hypo_queries_generated").Add(int64(counts.QueriesGenerated))
	return queries, final, counts, nil
}

func lessQuery(a, b insight.Query) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	if a.Val2 != b.Val2 {
		return a.Val2 < b.Val2
	}
	if a.Meas != b.Meas {
		return a.Meas < b.Meas
	}
	if a.GroupBy != b.GroupBy {
		return a.GroupBy < b.GroupBy
	}
	return a.Agg < b.Agg
}

// evalHypothesis evaluates every hypothesis query of one insight and one
// grouping attribute — which aggregates' comparison queries support the
// insight, plus the conciseness inputs θ and γ — from one walk of the pair
// cube. rank is A's codes in value order, so each aggregate's series
// reaches Supports in the order of A's value strings, the order a
// comparison result has.
func evalHypothesis(pc *engine.Cube, attrA int, rank []int32, ins insight.Insight) hypoOutcome {
	var pj engine.PairJoin
	pj.Join(pc, attrA, ins.Attr, ins.Val, ins.Val2, rank)
	out := hypoOutcome{theta: pj.Theta, gamma: len(pj.Groups)}
	var left, right []float64
	for _, agg := range engine.AllAggs {
		left, right = pj.Series(ins.Meas, agg, left[:0], right[:0])
		res := engine.ComparisonResult{Groups: pj.Groups, Left: left, Right: right}
		if insight.Supports(&res, ins.Type) {
			out.supportedAggs = append(out.supportedAggs, agg)
			if agg == engine.Avg {
				out.avgSupports = true
			}
		}
	}
	return out
}

// buildPairCubes materialises a cube for every needed {A, B} pair through
// the run's cube cache, either directly (§5.2.1 bounding) or by rolling up
// the group-by sets chosen by Algorithm 2's weighted set cover (§5.2.2).
// The cache's counters record how many cubes were aggregated from the base
// relation (misses) versus answered by reuse or roll-up.
func buildPairCubes(ctx context.Context, rel *table.Relation, cfg Config, needed []cover.Pair, cache *engine.CubeCache) (map[cover.Pair]*engine.Cube, error) {
	out := make(map[cover.Pair]*engine.Cube, len(needed))
	if len(needed) == 0 {
		return out, nil
	}
	if !cfg.UseWSC {
		inner := innerThreads(cfg.threads(), len(needed))
		cubes := make([]*engine.Cube, len(needed))
		err := parallelForCtx(ctx, cfg.threads(), len(needed), func(jctx context.Context, i int) error {
			var cerr error
			cubes[i], cerr = cache.GetOrBuild(jctx, rel, []int{needed[i].A, needed[i].B}, inner)
			return cerr
		})
		if err != nil {
			return nil, err
		}
		for i, p := range needed {
			out[p] = cubes[i]
		}
		return out, nil
	}

	// Algorithm 2: estimate candidate sizes, solve the weighted cover.
	cands := cover.EnumerateCandidates(rel.NumCatAttrs(), maxCoverSize)
	if err := weighCandidates(ctx, rel, cfg.Seed, cands); err != nil {
		return nil, err
	}
	chosen, err := cover.Greedy(ctx, needed, cands)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// §5.2.2 fallback: a cover over the memory budget (or no cover at
	// all) loads the smallest possible aggregates instead.
	if err != nil || cfg.MemBudget > 0 && cover.TotalWeight(cands, chosen) > float64(cfg.MemBudget) {
		cfgNoWSC := cfg
		cfgNoWSC.UseWSC = false
		return buildPairCubes(ctx, rel, cfgNoWSC, needed, cache)
	}

	// Base cubes of the cover always aggregate the relation directly
	// (BuildThrough never answers via roll-up), so their provenance does
	// not depend on what else the cache holds.
	inner := innerThreads(cfg.threads(), len(chosen))
	err = parallelForCtx(ctx, cfg.threads(), len(chosen), func(jctx context.Context, i int) error {
		_, berr := cache.BuildThrough(jctx, rel, cands[chosen[i]].Attrs, inner)
		return berr
	})
	if err != nil {
		return nil, err
	}
	// Every needed pair now rolls up from a cached base cube; GetOrBuild
	// picks the cheapest covering superset deterministically. cover.Greedy
	// guarantees coverage, so no pair falls back to a base-relation build.
	rolled := make([]*engine.Cube, len(needed))
	err = parallelForCtx(ctx, cfg.threads(), len(needed), func(jctx context.Context, pi int) error {
		p := needed[pi]
		var gerr error
		rolled[pi], gerr = cache.GetOrBuild(jctx, rel, []int{p.A, p.B}, 1)
		return gerr
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range needed {
		out[p] = rolled[pi]
	}
	return out, nil
}

// weighCandidates sets each candidate's weight to its estimated memory
// footprint (Algorithm 2 line 6): the estimated group count, from a
// sample of at most 4,096 rows, times the bytes of one group. One
// estimator and one seeded stream serve every candidate, in order. ctx is
// polled before each candidate.
func weighCandidates(ctx context.Context, rel *table.Relation, seed int64, cands []cover.Candidate) error {
	rowBytes := float64(8 + 4 + 3*8*rel.NumMeasures())
	rng := rand.New(rand.NewSource(jobSeed(seed, -2)))
	est := engine.NewGroupEstimator(rel, min(rel.NumRows(), 4096))
	for i := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		groups := est.Estimate(cands[i].Attrs, rng)
		cands[i].Weight = groups * rowBytes * float64(len(cands[i].Attrs))
	}
	return nil
}
