// Package pipeline orchestrates comparison-notebook generation end to end:
// Algorithm 1 (insight testing + comparison-query generation) with the §5
// optimizations — shared permutations with BH correction, offline
// sampling, the §5.2.1 query bounding, Algorithm 2's group-by merging,
// multi-threading — followed by TAP solving and notebook assembly. The
// five implementations of Table 3 (plus the user-study variants of
// Table 7) are presets over one Config.
package pipeline

import (
	"fmt"
	"runtime"
	"time"

	"comparenb/internal/engine"
	"comparenb/internal/governor"
	"comparenb/internal/insight"
	"comparenb/internal/metric"
	"comparenb/internal/obs"
	"comparenb/internal/sampling"
)

// BHScope is the family grouping for the FDR correction.
type BHScope int

const (
	// BHPerPair corrects within each (attribute, val, val') family — the
	// measures × types tested together on the same shared permutations.
	// This is the default and the most textual reading of §5.1.1 ("we use
	// the same permutations to check all possible insights on different
	// measures ... and correct the p-values"): the correction applies to
	// the batch that shares permutations. It is intentionally permissive;
	// the spurious insights it admits under aggressive sampling are
	// exactly the >100%-insights effect the paper reports in Figure 9,
	// and §6.3.4 points at the credibility component to keep them in
	// check.
	BHPerPair BHScope = iota
	// BHPerAttribute corrects within each categorical attribute's tests.
	// Stricter; mind the permutation floor — a family of N tests can only
	// produce discoveries when ≈ N·Alpha⁻¹-scaled counts of tests sit at
	// the 1/(Perms+1) floor.
	BHPerAttribute
	// BHGlobal corrects across every test of the run (most conservative).
	BHGlobal
)

func (s BHScope) String() string {
	switch s {
	case BHPerAttribute:
		return "per-attribute"
	case BHGlobal:
		return "global"
	case BHPerPair:
		return "per-pair"
	default:
		return "BHScope(?)"
	}
}

// SolverKind selects how the TAP is solved.
type SolverKind int

const (
	// SolverHeuristic is Algorithm 3 (sort by item efficiency).
	SolverHeuristic SolverKind = iota
	// SolverExact is the branch-and-bound CPLEX stand-in.
	SolverExact
	// SolverTopK is the §6.4 baseline: top ε_t queries by interest.
	SolverTopK
	// SolverHeuristicPlus is Algorithm 3 followed by 2-opt local search
	// and re-insertion (an extension; never worse than SolverHeuristic).
	SolverHeuristicPlus
)

func (s SolverKind) String() string {
	switch s {
	case SolverHeuristic:
		return "heuristic"
	case SolverExact:
		return "exact"
	case SolverTopK:
		return "topk"
	case SolverHeuristicPlus:
		return "heuristic+2opt"
	default:
		return "SolverKind(?)"
	}
}

// ParseSolver inverts String: it returns the solver kind named name.
func ParseSolver(name string) (SolverKind, error) {
	for s := SolverHeuristic; s <= SolverHeuristicPlus; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown solver %q (heuristic, exact, topk, heuristic+2opt)", name)
}

// Config controls a notebook-generation run. NewConfig supplies defaults;
// the preset constructors below reproduce the paper's implementations.
type Config struct {
	// Name labels the configuration in reports (e.g. "WSC-unb-approx").
	Name string

	// Sampling strategy and fraction for the statistical tests (§5.1.2).
	Sampling   sampling.Strategy
	SampleFrac float64

	// Perms is the permutation count per test; Alpha the FDR level: an
	// insight is significant when its BH-adjusted p ≤ Alpha, i.e.
	// sig(i) ≥ 1 − Alpha (the paper's sig(i) ≥ 0.95).
	Perms int
	Alpha float64
	// BHScope selects the family the Benjamini–Hochberg correction is
	// applied within (default: per test batch sharing permutations, i.e.
	// per (attribute, val, val') pair — see the BHScope constants for the
	// §5.1.1 reading and the stricter ablations).
	BHScope BHScope

	// MinSideRows skips degenerate tests whose either side has fewer rows.
	MinSideRows int
	// MaxPairsPerAttr caps the (val, val') pairs tested per attribute,
	// taking the most populated values first (0 = all pairs). A scale
	// valve for attributes with huge active domains.
	MaxPairsPerAttr int

	// Interest and Weights parameterise §4.2.
	Interest metric.InterestParams
	Weights  metric.Weights

	// Threads bounds worker-pool width for the two parallel phases of
	// Figure 8 (≤ 0 means GOMAXPROCS).
	Threads int

	// UseWSC enables Algorithm 2's group-by merging; MaxCoverSize caps the
	// candidate group-by set size; MemoryBudget (bytes, 0 = unlimited) is
	// the in-memory budget — when the chosen cover would exceed it, the
	// §5.2.2 fallback loads the smallest aggregates (the 2-group-bys).
	UseWSC       bool
	MaxCoverSize int
	MemoryBudget int64

	// CubeCacheBudget bounds the run's partial-aggregate cache (bytes of
	// cube footprint, <= 0 = unbounded). The cache is shared by Algorithm
	// 2's set cover, the hypothesis phase and the notebook's verification
	// queries: exact attribute sets are reused, subset group-bys are
	// answered by rolling up a cached superset instead of rescanning the
	// base relation. See docs/PERFORMANCE.md for keying and eviction.
	CubeCacheBudget int64

	// AutoConciseness calibrates the conciseness parameters α, δ from the
	// observed (θ, γ) of the candidate queries instead of using
	// Interest.Conciseness — automating the paper's "empirically tuned"
	// setting (see metric.CalibrateConciseness).
	AutoConciseness bool

	// FDMaxError is the g3 error tolerated when detecting functional
	// dependencies in pre-processing (0 = exact FDs only). A small value
	// (e.g. 0.01) lets a few dirty rows not defeat the degenerate-query
	// pruning of footnote 2.
	FDMaxError float64

	// DisableTransitivePruning keeps deducible insights (ablation).
	DisableTransitivePruning bool

	// InsightTypes selects the insight types tested (nil = the paper's
	// mean-greater and variance-greater). insight.ExtendedTypes adds the
	// median-greater extension of §7.
	InsightTypes []insight.Type

	// CredibilityAggExists switches credibility to count a grouping
	// attribute as supporting when ANY aggregate's comparison supports the
	// insight. The default (false) follows Def. 3.11's |Qⁱ| = n−1: one
	// canonical hypothesis query per grouping attribute, using agg = avg
	// (the series of group averages). The ∃agg reading makes credibility
	// saturate — nearly every attribute has some agreeing aggregate — and
	// is kept as an ablation.
	CredibilityAggExists bool

	// TAP parameters: ε_t (number of queries — §4.2's uniform cost), ε_d,
	// the solver, and the exact solver's timeout.
	EpsT         int
	EpsD         float64
	Solver       SolverKind
	ExactTimeout time.Duration

	// TimeBudget is a soft wall-clock budget for the whole run (0 = none).
	// The analysis phases run to completion; whatever remains of the budget
	// when the TAP starts becomes the exact solver's deadline, and on
	// expiry the anytime ladder degrades to a heuristic solution
	// (Result.TAP records which rung answered and the optimality gap). The
	// budget is the discipline the paper gets from CPLEX's time-limit
	// parameter: a notebook always comes back, only its optimality
	// certificate is sacrificed. A budget the run never exhausts changes
	// nothing — outputs stay byte-identical to an unbudgeted run. Hard
	// cancellation (abandon the run, produce nothing) is GenerateContext's
	// ctx instead.
	TimeBudget time.Duration

	// MemBudget is a hard in-memory budget (bytes of cube footprint,
	// 0 = none) enforced at cube-cache admission time. It is distinct
	// from MemoryBudget (the §5.2.2 planning budget, which only steers
	// the WSC cover choice) and from CubeCacheBudget (a soft bound,
	// enforced only by phase-boundary Trims): with MemBudget armed the
	// cache never holds more than this many bytes at any instant —
	// entries are evicted largest-first to admit new builds, and a cube
	// too large to ever fit is simply not cached (the query is still
	// answered from the freshly built cube, so the run completes; it just
	// loses reuse). Admission actions are recorded in the run report
	// (mem_evictions), because mid-phase eviction makes cache contents
	// scheduling-dependent — byte-identity across thread counts is only
	// guaranteed while the budget is never hit. When both MemoryBudget
	// and MemBudget are set, WSC planning respects the smaller.
	MemBudget int64

	// Cache, when set, is an externally owned cube cache shared across
	// runs — the serving-path configuration (internal/server hands every
	// job the daemon's cache). The run uses it instead of creating a
	// private one: lookups may be answered by cubes built by earlier runs
	// over the same *Relation (exact hits, or distributive roll-ups that
	// are bit-identical to a fresh build), so notebook bytes are unchanged
	// while repeated requests skip the base-relation scans. Ownership
	// stays with the caller: Generate neither re-Instruments the cache nor
	// touches its budgets (CubeCacheBudget and MemBudget only configure a
	// private cache), and the run's cache Counts become deltas of the
	// shared counters over the run — exact when the cache serves one run
	// at a time, approximate attribution under concurrency.
	// Phase-boundary Trims still run, against the cache's own budget.
	Cache *engine.CubeCache

	// IncludeHypotheses adds, after each notebook query, a code cell with
	// the hypothesis query (Figure 3 form) for each insight the query
	// evidences — so a skeptical reader can re-check support in SQL.
	IncludeHypotheses bool

	// Logf, when set, receives one line per pipeline phase (FD detection,
	// statistical tests, hypothesis evaluation, TAP) with counts and
	// durations. Useful for long runs; nil disables logging.
	Logf func(format string, args ...any)

	// Obs, when set, is the run's observability registry: spans, counters
	// and timing histograms land there and the caller exports them after
	// the run (trace JSON, metrics exposition, stderr summary — see
	// docs/OBSERVABILITY.md). The registry is run-scoped: pass a fresh
	// obs.New() per Generate call, or leave nil and the pipeline creates
	// a private one (the report still reads its counters; they are just
	// not exportable afterwards). Observability never changes outputs:
	// notebooks, reports and p-values are byte-identical with Obs set or
	// nil, at every Threads setting.
	Obs *obs.Registry

	// Seed makes the whole run deterministic.
	Seed int64

	// forceStatsLevel / forceHypoLevel pin a degradation-ladder rung for
	// the corresponding phase, bypassing the governor's wall-clock
	// decisions. Test-only: wall-clock pressure is inherently flaky to
	// reproduce, while a pinned rung exercises the exact same code path
	// deterministically. Zero value (governor.Full) means "ask the
	// governor", i.e. production behaviour.
	forceStatsLevel governor.Level
	forceHypoLevel  governor.Level
}

// logf is the nil-safe logging helper.
func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Validate reports the first configuration error, with enough context to
// fix it. Generate calls it; tools can call it earlier for better error
// placement.
func (c Config) Validate() error {
	switch {
	case c.Perms <= 0:
		return fmt.Errorf("pipeline: Perms must be positive, got %d", c.Perms)
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("pipeline: Alpha must be in (0, 1), got %v", c.Alpha)
	case c.EpsT <= 0:
		return fmt.Errorf("pipeline: EpsT must be positive, got %d", c.EpsT)
	case c.EpsD < 0:
		return fmt.Errorf("pipeline: EpsD must be non-negative, got %v", c.EpsD)
	case c.SampleFrac < 0 || c.SampleFrac > 1:
		return fmt.Errorf("pipeline: SampleFrac must be in [0, 1], got %v", c.SampleFrac)
	//nolint:floateq // 0 is the explicit "unset" sentinel for SampleFrac, not a computed value
	case c.Sampling != sampling.None && c.SampleFrac == 0:
		return fmt.Errorf("pipeline: %v sampling with SampleFrac 0 would test nothing", c.Sampling)
	case c.FDMaxError < 0 || c.FDMaxError >= 1:
		return fmt.Errorf("pipeline: FDMaxError must be in [0, 1), got %v", c.FDMaxError)
	case c.TimeBudget < 0:
		return fmt.Errorf("pipeline: TimeBudget must be non-negative, got %v", c.TimeBudget)
	case c.MemBudget < 0:
		return fmt.Errorf("pipeline: MemBudget must be non-negative, got %d", c.MemBudget)
	case float64(1)/float64(c.Perms+1) > c.Alpha:
		return fmt.Errorf("pipeline: Perms=%d cannot reach significance at Alpha=%v "+
			"(the smallest possible permutation p-value is 1/(Perms+1) = %.4f); increase Perms",
			c.Perms, c.Alpha, 1/float64(c.Perms+1))
	}
	return nil
}

// NewConfig returns the default configuration: full data, heuristic
// solver, a 10-query notebook.
func NewConfig() Config {
	return Config{
		Name:            "default",
		Sampling:        sampling.None,
		SampleFrac:      1,
		Perms:           200,
		Alpha:           0.05,
		MinSideRows:     2,
		Interest:        metric.DefaultInterest,
		Weights:         metric.DefaultWeights,
		Threads:         runtime.GOMAXPROCS(0),
		UseWSC:          false,
		MaxCoverSize:    4,
		CubeCacheBudget: 64 << 20,
		EpsT:            10,
		EpsD:            1.5,
		Solver:          SolverHeuristic,
		ExactTimeout:    time.Hour,
	}
}

// insightTypes resolves the effective insight-type set.
func (c Config) insightTypes() []insight.Type {
	if len(c.InsightTypes) == 0 {
		return insight.AllTypes
	}
	return c.InsightTypes
}

// threads resolves the effective worker count.
func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// NaiveExact is Table 3's "Naive-exact": Algorithm 1 with the §5.2.1
// bounding, exact TAP resolution.
func NaiveExact(epsT int, epsD float64) Config {
	c := NewConfig()
	c.Name = "Naive-exact"
	c.Solver = SolverExact
	c.EpsT, c.EpsD = epsT, epsD
	return c
}

// NaiveApprox is Table 3's "Naive-approx": bounding + Algorithm 3.
func NaiveApprox(epsT int, epsD float64) Config {
	c := NewConfig()
	c.Name = "Naive-approx"
	c.EpsT, c.EpsD = epsT, epsD
	return c
}

// WSCApprox is Table 3's "WSC-approx": Algorithm 2 + Algorithm 3.
func WSCApprox(epsT int, epsD float64) Config {
	c := NewConfig()
	c.Name = "WSC-approx"
	c.UseWSC = true
	c.EpsT, c.EpsD = epsT, epsD
	return c
}

// WSCUnbApprox is Table 3's "WSC-unb-approx": Algorithm 2 + unbalanced
// sampling at the given fraction + Algorithm 3.
func WSCUnbApprox(epsT int, epsD float64, frac float64) Config {
	c := WSCApprox(epsT, epsD)
	c.Name = "WSC-unb-approx"
	c.Sampling = sampling.Unbalanced
	c.SampleFrac = frac
	return c
}

// WSCRandApprox is Table 3's "WSC-rand-approx": Algorithm 2 + random
// sampling + Algorithm 3.
func WSCRandApprox(epsT int, epsD float64, frac float64) Config {
	c := WSCApprox(epsT, epsD)
	c.Name = "WSC-rand-approx"
	c.Sampling = sampling.Random
	c.SampleFrac = frac
	return c
}

// WSCApproxSig is the Table 7 user-study variant whose interestingness is
// significance only (no conciseness, no credibility).
func WSCApproxSig(epsT int, epsD float64) Config {
	c := WSCApprox(epsT, epsD)
	c.Name = "WSC-approx-sig"
	c.Interest = metric.InterestParams{Omega: 1}
	return c
}

// WSCApproxSigCred is the Table 7 variant with significance and
// credibility but no conciseness.
func WSCApproxSigCred(epsT int, epsD float64) Config {
	c := WSCApprox(epsT, epsD)
	c.Name = "WSC-approx-sig-cred"
	c.Interest = metric.InterestParams{Omega: 1, UseCredibility: true}
	return c
}

// Timings is the per-phase runtime breakdown of Figure 7 (bottom) and
// Figure 8. Each phase is measured once, at the boundaries of its
// phase/* span; the phase_* histograms of the run's registry record the
// same durations, and run_total records Total.
type Timings struct {
	FD        time.Duration // functional-dependency pre-processing
	StatTests time.Duration // permutation tests + BH (phase (i) of Fig. 8)
	HypoEval  time.Duration // cube building + support checks (phase (ii))
	TAP       time.Duration // solver
	Total     time.Duration
}

// Counts summarises what the run saw.
type Counts struct {
	InsightsEnumerated  int // Lemma 3.5 candidates actually tested
	SignificantInsights int // after BH at level Alpha
	PrunedTransitive    int // removed by §3.3 transitivity
	SupportChecks       int // hypothesis-query evaluations
	CubesBuilt          int // cubes aggregated from the base relation (cache misses)
	QueriesGenerated    int // |Q| after Algorithm 1's dedup

	// Cube-cache counters, snapshotted at the end of the hypothesis phase.
	CacheHits      int
	CacheRollups   int // subset group-bys answered via Rollup of a cached superset
	CacheMisses    int
	CacheEvictions int
}
