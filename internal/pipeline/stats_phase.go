package pipeline

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"comparenb/internal/governor"
	"comparenb/internal/insight"
	obspkg "comparenb/internal/obs" // `obs` would shadow the observed-statistic locals below
	"comparenb/internal/sampling"
	"comparenb/internal/stats"
	"comparenb/internal/table"
)

// statOutcome is one raw permutation-test result awaiting FDR correction.
type statOutcome struct {
	key    insight.Key
	p      float64
	effect float64
}

// The stats phase reports its degradation through the run's obs registry
// rather than a side struct, so the run report and the metrics exposition
// read the same cells:
//
//	stats_pairs_shed          counter — Shed rung: pairs dropped untested
//	stats_perms_effective_min gauge   — smallest permutation count an
//	                                    early-stopped test used (0 = none)
//	stats_earlystop_engaged   gauge   — 1 when any job ran with
//	                                    early stopping

// permsShedCap returns the Shed rung's permutation cap: the fewest whole
// permutation blocks that can still reach significance at alpha (the
// smallest achievable permutation p-value is 1/(cap+1)), never more than
// the configured count. Shed keeps only the highest-priority pairs, so
// the few tests that do run must stay able to reject.
func permsShedCap(perms int, alpha float64) int {
	need := int(math.Ceil(1/alpha)) - 1
	blocks := (need + stats.PermBlock - 1) / stats.PermBlock
	if blocks < 1 {
		blocks = 1
	}
	c := blocks * stats.PermBlock
	if c > perms {
		c = perms
	}
	return c
}

// runStatTests executes the significance phase of Algorithm 1 line 3 with
// the §5.1 optimizations: per-attribute (optionally sampled) test
// relations, shared permutations across measures, global BH correction.
// It returns the significant insights (sig ≥ 1 − Alpha) and the number of
// candidate insights actually tested. Cancelling ctx aborts the phase at
// the next test checkpoint with ctx's error; a live ctx never changes
// the result.
//
// gov (nil = ungoverned) drives the phase's degradation ladder, asked
// once per (attribute, value pair) job: Full evaluates every permutation
// (the byte-identical path); Degrade lets each test stop early once its
// verdict at Alpha is certain; Shed additionally drops every job outside
// the top max(EpsT, 4) priority ranks and caps the survivors'
// permutations at permsShedCap. Priority is most-populated pair first —
// a pure function of the input, so which pairs Shed drops is
// deterministic even though *when* shedding starts depends on the wall
// clock.
func runStatTests(ctx context.Context, rel *table.Relation, cfg Config, gov *governor.Governor) (significant []insight.Insight, tested int, err error) {
	n := rel.NumCatAttrs()
	// Pre-draw the test relation(s). Random sampling shares one sample;
	// unbalanced sampling is per attribute (§5.1.2).
	samplerRNG := rand.New(rand.NewSource(jobSeed(cfg.Seed, -1)))
	testRels := make([]*table.Relation, n)
	switch cfg.Sampling {
	case sampling.Random:
		shared := sampling.RandomSample(rel, cfg.SampleFrac, samplerRNG)
		for a := range testRels {
			testRels[a] = shared
		}
	case sampling.Unbalanced:
		for a := range testRels {
			testRels[a] = sampling.UnbalancedSample(rel, a, cfg.SampleFrac, samplerRNG)
		}
	default:
		for a := range testRels {
			testRels[a] = rel
		}
	}

	// Partition each test relation's rows by attribute code, once per
	// attribute, and enumerate the test jobs: one per (attribute, value
	// pair).
	parts := make([]rowPartition, n)
	for a := range parts {
		parts[a] = partitionRows(testRels[a], a)
	}
	type pairJob struct {
		attr      int
		val, val2 int32
	}
	var jobs []pairJob
	for a := 0; a < n; a++ {
		pairs := enumeratePairs(testRels[a], a, parts[a], cfg.MaxPairsPerAttr)
		for _, pr := range pairs {
			jobs = append(jobs, pairJob{attr: a, val: pr[0], val2: pr[1]})
		}
	}

	// Degradation-ladder bookkeeping, computed only when a ladder can
	// engage: the priority rank of each job (most-populated pair first,
	// ties by attr/val/val2 — a pure function of the input relations, so
	// Shed's victims are deterministic) and the Shed permutation cap.
	forced := cfg.forceStatsLevel != governor.Full
	var rank []int
	if gov != nil || forced {
		order := make([]int, len(jobs))
		for i := range order {
			order[i] = i
		}
		pop := make([]int, len(jobs))
		for ji, job := range jobs {
			pop[ji] = parts[job.attr].count(job.val) + parts[job.attr].count(job.val2)
		}
		sort.SliceStable(order, func(x, y int) bool {
			jx, jy := jobs[order[x]], jobs[order[y]]
			if pop[order[x]] != pop[order[y]] {
				return pop[order[x]] > pop[order[y]]
			}
			if jx.attr != jy.attr {
				return jx.attr < jy.attr
			}
			if jx.val != jy.val {
				return jx.val < jy.val
			}
			return jx.val2 < jy.val2
		})
		rank = make([]int, len(jobs))
		for pos, ji := range order {
			rank[ji] = pos
		}
	}
	minKeep := cfg.EpsT
	if minKeep < 4 {
		minKeep = 4
	}
	shedCap := permsShedCap(cfg.Perms, cfg.Alpha)

	outcomes := make([][]statOutcome, len(jobs))
	testedPer := make([]int, len(jobs))
	skipped := make([]bool, len(jobs))
	earlyPer := make([]bool, len(jobs))
	minPermsPer := make([]int, len(jobs))
	var done atomic.Int64
	inner := innerThreads(cfg.threads(), len(jobs))
	err = parallelForCtx(ctx, cfg.threads(), len(jobs), func(jctx context.Context, ji int) error {
		defer done.Add(1)
		sp := obspkg.StartSpan(jctx, "stats/pair")
		defer sp.End()
		job := jobs[ji]
		trel := testRels[job.attr]
		level := cfg.forceStatsLevel
		if level == governor.Full {
			level = gov.Admit(governor.Stats, int(done.Load()), len(jobs))
		}
		nperm, alpha := cfg.Perms, 0.0
		switch level {
		case governor.Degrade:
			alpha = cfg.Alpha
		case governor.Shed:
			if rank[ji] >= minKeep {
				skipped[ji] = true
				return nil
			}
			nperm, alpha = shedCap, cfg.Alpha
		}
		earlyPer[ji] = level != governor.Full
		var jerr error
		outcomes[ji], testedPer[ji], minPermsPer[ji], jerr = testPair(jctx, trel, parts[job.attr], job.attr, job.val, job.val2, cfg, jobSeed(cfg.Seed, ji), inner, nperm, alpha)
		return jerr
	})
	if err != nil {
		return nil, 0, err
	}

	pairsShed, minPerms := 0, 0
	earlyStopped := false
	var all []statOutcome
	for ji := range outcomes {
		all = append(all, outcomes[ji]...)
		tested += testedPer[ji]
		if skipped[ji] {
			pairsShed++
		}
		if earlyPer[ji] {
			earlyStopped = true
			if mp := minPermsPer[ji]; mp > 0 && (minPerms == 0 || mp < minPerms) {
				minPerms = mp
			}
		}
	}
	// Publish the degradation record; the run report reads these cells.
	reg := obspkg.FromContext(ctx)
	if pairsShed > 0 {
		reg.Counter("stats_pairs_shed").Add(int64(pairsShed))
	}
	reg.Gauge("stats_perms_effective_min").Set(int64(minPerms))
	if earlyStopped {
		reg.Gauge("stats_earlystop_engaged").Set(1)
	}

	// Benjamini–Hochberg correction (§5.1.1), applied within the families
	// selected by cfg.BHScope.
	families := make(map[int64][]int) // family id → indexes into all
	for i, o := range all {
		var fam int64
		switch cfg.BHScope {
		case BHGlobal:
			fam = 0
		case BHPerPair:
			fam = ((int64(o.key.Attr)<<20)|int64(o.key.Val))<<20 | int64(o.key.Val2)
		default: // BHPerAttribute
			fam = int64(o.key.Attr)
		}
		families[fam] = append(families[fam], i)
	}
	for _, idxs := range families {
		ps := make([]float64, len(idxs))
		for k, i := range idxs {
			ps[k] = all[i].p
		}
		qs := stats.BenjaminiHochberg(ps)
		for k, i := range idxs {
			o := all[i]
			if qs[k] <= cfg.Alpha {
				significant = append(significant, insight.Insight{
					Meas: o.key.Meas, Attr: o.key.Attr,
					Val: o.key.Val, Val2: o.key.Val2,
					Type:   o.key.Type,
					Sig:    1 - qs[k],
					Effect: o.effect,
				})
			}
		}
	}
	// Deterministic order regardless of scheduling.
	sort.Slice(significant, func(a, b int) bool { return lessKey(significant[a].Key(), significant[b].Key()) })
	return significant, tested, nil
}

func lessKey(a, b insight.Key) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Meas != b.Meas {
		return a.Meas < b.Meas
	}
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	if a.Val2 != b.Val2 {
		return a.Val2 < b.Val2
	}
	return a.Type < b.Type
}

// rowPartition lists a relation's rows by the code of one attribute:
// code c's rows, in row order, are rows[start[c]:start[c+1]]. It spans
// the attribute's whole dictionary, so a code without rows — a sampled
// relation keeps its parent's dictionary — has an empty list.
type rowPartition struct {
	start []int32
	rows  []int32
}

// partitionRows partitions rel's rows by attribute a with one counting
// sort.
func partitionRows(rel *table.Relation, a int) rowPartition {
	col := rel.CatCol(a)
	start := make([]int32, rel.DomSize(a)+1)
	for _, c := range col {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	rows := make([]int32, len(col))
	for i, c := range col {
		rows[start[c]] = int32(i)
		start[c]++
	}
	// Each cursor now sits where the next code's rows begin.
	copy(start[1:], start)
	start[0] = 0
	return rowPartition{start: start, rows: rows}
}

func (p rowPartition) of(c int32) []int32 { return p.rows[p.start[c]:p.start[c+1]] }

func (p rowPartition) count(c int32) int { return int(p.start[c+1] - p.start[c]) }

// enumeratePairs lists the (val, val') code pairs of attribute a in
// deterministic (lexicographic) order, optionally keeping only the pairs
// among the maxPairs most populated values.
func enumeratePairs(rel *table.Relation, a int, part rowPartition, maxPairs int) [][2]int32 {
	codes := rel.SortedDomain(a)
	if maxPairs > 0 {
		// Keep the most frequent values until the pair budget is met:
		// k values yield k(k−1)/2 pairs.
		k := len(codes)
		for k > 2 && k*(k-1)/2 > maxPairs {
			k--
		}
		sort.SliceStable(codes, func(i, j int) bool { return part.count(codes[i]) > part.count(codes[j]) })
		codes = codes[:k]
		dict := rel
		sort.Slice(codes, func(i, j int) bool { return dict.Value(a, codes[i]) < dict.Value(a, codes[j]) })
	}
	var out [][2]int32
	for i := 0; i < len(codes); i++ {
		for j := i + 1; j < len(codes); j++ {
			out = append(out, [2]int32{codes[i], codes[j]})
		}
	}
	return out
}

// testPair runs the permutation tests for every measure and insight type
// on one (attribute, val, val') pair, sharing one permutation stream
// across the measures of a run of consecutive measures whose pooled sides
// have identical sizes (they differ only when NaN cells were filtered).
// The stream is seeded from `seed` and the run's first measure, even when
// that measure yields no test. nperm and alpha are the rung's policy:
// Full passes cfg.Perms and 0 (never stop early); Degrade and Shed pass
// their cap and cfg.Alpha. Results are bit-identical at every thread
// count. minPerms is the smallest permutation count any test here
// evaluated (0 when the pair produced no tests).
func testPair(ctx context.Context, rel *table.Relation, part rowPartition, attr int, val, val2 int32, cfg Config, seed int64, threads, nperm int, alpha float64) (out []statOutcome, tested, minPerms int, err error) {
	xRows, yRows := part.of(val), part.of(val2)
	if len(xRows) < minSideRows || len(yRows) < minSideRows {
		return nil, 0, 0, nil
	}

	// The current stream: its sides, its seed, and the tests and
	// outcomes queued on it, scored together when the stream ends.
	sides := [2]int{-1, -1}
	var streamSeed int64
	var tests []stats.PermTest
	var pending []statOutcome
	flush := func() error {
		if len(tests) == 0 {
			return nil
		}
		res, err := stats.PermTests(ctx, sides[0], sides[1], nperm, streamSeed, threads, alpha, tests)
		if err != nil {
			return err
		}
		for i, r := range res {
			if minPerms == 0 || r.Perms < minPerms {
				minPerms = r.Perms
			}
			pending[i].p = r.P
		}
		out = append(out, pending...)
		tests, pending = tests[:0], pending[:0]
		return nil
	}
	for m := 0; m < rel.NumMeasures(); m++ {
		// The pooled vector: side X's non-NaN cells, then side Y's.
		mcol := rel.MeasCol(m)
		pooled := gather(make([]float64, 0, len(xRows)+len(yRows)), mcol, xRows)
		nx := len(pooled)
		pooled = gather(pooled, mcol, yRows)
		xs, ys := pooled[:nx], pooled[nx:]
		if len(xs) < minSideRows || len(ys) < minSideRows {
			continue
		}
		if sides != [2]int{len(xs), len(ys)} {
			if err := flush(); err != nil {
				return nil, 0, 0, err
			}
			sides, streamSeed = [2]int{len(xs), len(ys)}, jobSeed(seed, m)
		}
		mean := [2]float64{stats.Mean(xs), stats.Mean(ys)}
		popVar := [2]float64{stats.PopVariance(xs), stats.PopVariance(ys)}
		for _, typ := range cfg.insightTypes() {
			v, v2, effect, ok := orient(xs, ys, mean, popVar, val, val2, typ)
			if !ok {
				continue
			}
			tested++
			tests = append(tests, stats.PermTest{Pooled: pooled, Stat: typ.TestStat()})
			pending = append(pending, statOutcome{
				key:    insight.Key{Meas: m, Attr: attr, Val: v, Val2: v2, Type: typ},
				effect: effect,
			})
		}
	}
	if err := flush(); err != nil {
		return nil, 0, 0, err
	}
	return out, tested, minPerms, nil
}

// orient decides the insight direction from the observed statistics:
// (val, val') such that val's statistic is strictly greater, plus the
// observed effect size (Cohen's d for mean/median, variance ratio for
// variance). mean and popVar are stats.Mean and stats.PopVariance of xs
// and ys, computed once per measure for all its types. ok=false when the
// statistics tie or are undefined.
func orient(xs, ys []float64, mean, popVar [2]float64, val, val2 int32, typ insight.Type) (int32, int32, float64, bool) {
	var sx, sy float64
	switch typ {
	case insight.MeanGreater:
		sx, sy = mean[0], mean[1]
	case insight.VarianceGreater:
		sx, sy = popVar[0], popVar[1]
	case insight.MedianGreater:
		sx, sy = stats.Median(xs), stats.Median(ys)
	}
	if math.IsNaN(sx) || math.IsNaN(sy) || stats.ApproxEqual(sx, sy, stats.Tol) {
		return 0, 0, 0, false
	}
	var effect float64
	switch typ {
	case insight.MeanGreater, insight.MedianGreater:
		nx, ny := float64(len(xs)), float64(len(ys))
		pooled := math.Sqrt((nx*popVar[0] + ny*popVar[1]) / (nx + ny))
		if pooled > 0 {
			effect = math.Abs(sx-sy) / pooled
		}
	case insight.VarianceGreater:
		lo := math.Min(sx, sy)
		if lo > 0 {
			effect = math.Max(sx, sy) / lo
		}
	}
	if sx > sy {
		return val, val2, effect, true
	}
	return val2, val, effect, true
}

// gather appends col's non-NaN cells at rows to dst.
func gather(dst, col []float64, rows []int32) []float64 {
	for _, r := range rows {
		if v := col[r]; !math.IsNaN(v) {
			dst = append(dst, v)
		}
	}
	return dst
}
