package tap

import (
	"context"
	"math"
	"sort"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/obs"
)

// ExactOptions configures the exact branch-and-bound solver.
type ExactOptions struct {
	// Timeout aborts the search and returns the incumbent (0 = none).
	// Table 4's CPLEX runs used one hour; the benches scale this down.
	Timeout time.Duration
	// Deadline aborts the search at an absolute wall-clock instant (zero
	// = none). When both Timeout and Deadline are set the earlier one
	// wins. This is how a pipeline-wide time budget reaches the solver.
	Deadline time.Time
	// MaxNodes aborts the search after this many branch-and-bound nodes
	// (0 = unlimited). Unlike the wall-clock budgets it is perfectly
	// deterministic, which is what the anytime property tests rely on:
	// two runs with node budgets N1 ≤ N2 explore identical prefixes.
	MaxNodes int64
	// Ctx, when non-nil, is polled at the periodic budget checkpoint;
	// cancellation stops the search exactly like an expired deadline
	// (TimedOut=true, incumbent returned). Callers that need an error
	// check Ctx.Err() themselves afterwards.
	Ctx context.Context
}

// maxHeldKarp caps the subset size for which the minimum Hamiltonian path
// is computed exactly (2^k DP). Larger subsets fall back to the
// cheapest-insertion upper bound and the result is no longer certified
// optimal.
const maxHeldKarp = 13

// ExactStats reports how the search went.
type ExactStats struct {
	Nodes     int64
	Elapsed   time.Duration
	TimedOut  bool // a budget (time, nodes, or context) stopped the search
	Certified bool // provably optimal (no timeout, no Held–Karp fallback)
	// BestBound is a certified upper bound on the optimal total interest:
	// the incumbent's interest when the search completed (Certified), the
	// root fractional-knapsack bound otherwise. Gap is the relative
	// optimality gap (BestBound − incumbent) / BestBound — 0 when the
	// solution is provably optimal, and the honest "how far might we be"
	// figure an anytime caller reports after a budget expiry.
	BestBound float64
	Gap       float64
}

// budgetCheckNodes is how many branch-and-bound nodes pass between two
// wall-clock/context budget checks (and faultinject ticks). Node counts,
// not time, trigger the check, so instrumentation cannot perturb which
// nodes are explored before a deterministic node budget trips.
const budgetCheckNodes = 4096

// SolveExact solves the TAP to optimality by branch-and-bound, standing in
// for the paper's CPLEX model: maximise Σ interest subject to
// Σ cost ≤ ε_t and min-Hamiltonian-path(S) ≤ ε_d.
//
// Branching is on queries in decreasing interest order. Pruning uses
// (i) a fractional-knapsack upper bound on the remaining interest, and
// (ii) the MST weight of the chosen subset: MST(S) lower-bounds the
// minimum Hamiltonian path over S, which in a metric space is itself
// monotone under adding queries, so MST(S) > ε_d rules out every superset
// of S. Feasibility of an incumbent is decided exactly by Held–Karp when
// the subset is small enough.
func SolveExact(inst *Instance, epsT, epsD float64, opt ExactOptions) (Solution, ExactStats) {
	start := time.Now()
	n := inst.N()
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	sort.SliceStable(items, func(a, b int) bool {
		return inst.Interest[items[a]] > inst.Interest[items[b]]
	})

	s := &exactSearch{
		inst:      inst,
		items:     items,
		epsT:      epsT,
		epsD:      epsD,
		opt:       opt,
		start:     start,
		deadline:  effectiveDeadline(start, opt),
		certified: true,
	}
	rootBound := s.fractionalBound(0, epsT)
	faultinject.Fire(faultinject.TapSearchTick)
	searchCtx := opt.Ctx
	if searchCtx == nil {
		searchCtx = context.Background()
	}
	sp := obs.StartSpan(searchCtx, "tap/bnb")
	// An already-spent budget skips the search entirely: the caller gets
	// an empty incumbent and TimedOut, and the anytime layer degrades.
	if s.budgetSpent() {
		s.timedOut = true
	} else {
		s.dfs(0, nil, 0, 0)
	}
	sp.End()
	// The search keeps plain local tallies (the DFS is single-threaded)
	// and flushes them in one batch; absent any budget they are a pure
	// function of the instance, so thread- and run-invariant.
	if reg := obs.FromContext(searchCtx); reg != nil {
		reg.Counter("tap_nodes_expanded").Add(s.nodes)
		reg.Counter("tap_bound_prunes").Add(s.boundPrunes)
		reg.Counter("tap_infeasible_prunes").Add(s.infeasPrunes)
		reg.Counter("tap_incumbent_updates").Add(s.incumbentUpdates)
	}
	stats := ExactStats{
		Nodes:     s.nodes,
		Elapsed:   time.Since(start),
		TimedOut:  s.timedOut,
		Certified: s.certified && !s.timedOut,
	}
	var sol Solution
	if s.bestOrder != nil {
		sol = inst.Evaluate(s.bestOrder)
	}
	stats.BestBound, stats.Gap = boundAndGap(stats.Certified, rootBound, sol.TotalInterest)
	return sol, stats
}

// effectiveDeadline resolves Timeout and Deadline to the earliest
// absolute instant, or zero when neither is set.
func effectiveDeadline(start time.Time, opt ExactOptions) time.Time {
	d := opt.Deadline
	if opt.Timeout > 0 {
		if t := start.Add(opt.Timeout); d.IsZero() || t.Before(d) {
			d = t
		}
	}
	return d
}

// boundAndGap derives the certified upper bound and relative optimality
// gap from the root relaxation and the incumbent. A completed search's
// own optimum is the tightest bound; otherwise the root bound stands.
func boundAndGap(certified bool, rootBound, incumbent float64) (bound, gap float64) {
	bound = rootBound
	if certified || bound < incumbent || math.IsNaN(bound) {
		bound = incumbent
	}
	if bound > 0 && incumbent < bound {
		gap = (bound - incumbent) / bound
	}
	return bound, gap
}

// budgetSpent reports whether a wall-clock deadline has passed or the
// context was cancelled. The node budget is checked separately in dfs.
func (s *exactSearch) budgetSpent() bool {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return true
	}
	return s.opt.Ctx != nil && s.opt.Ctx.Err() != nil
}

type exactSearch struct {
	inst      *Instance
	items     []int
	epsT      float64
	epsD      float64
	opt       ExactOptions
	start     time.Time
	deadline  time.Time
	nodes     int64
	timedOut  bool
	certified bool

	// Search-shape tallies flushed to the obs registry after the search.
	boundPrunes      int64 // fractional-knapsack bound cut the branch
	infeasPrunes     int64 // MST / exact-path infeasibility cut the branch
	incumbentUpdates int64

	bestInterest float64
	bestOrder    []int
}

func (s *exactSearch) dfs(idx int, chosen []int, interest, cost float64) {
	if s.timedOut {
		return
	}
	s.nodes++
	if s.opt.MaxNodes > 0 && s.nodes > s.opt.MaxNodes {
		s.timedOut = true
		return
	}
	if s.nodes%budgetCheckNodes == 0 {
		faultinject.Fire(faultinject.TapSearchTick)
		if s.budgetSpent() {
			s.timedOut = true
			return
		}
	}
	if idx == len(s.items) {
		return
	}
	// Upper bound: current interest plus the fractional-knapsack optimum
	// of the remaining items within the remaining budget.
	if interest+s.fractionalBound(idx, s.epsT-cost) <= s.bestInterest+1e-12 {
		s.boundPrunes++
		return
	}

	// Branch 1: include items[idx].
	q := s.items[idx]
	if cost+s.inst.Cost[q] <= s.epsT+1e-12 {
		next := append(chosen, q)
		// MST(next) lower-bounds minPath(next) for any weights, and in a
		// metric space minPath is monotone under adding queries — so for
		// metric instances MST(next) > ε_d rules out every superset. For
		// non-metric instances neither step holds and the branch must be
		// explored regardless.
		if !s.inst.NonMetric && mstWeight(s.inst, next) > s.epsD+1e-12 {
			s.infeasPrunes++
		} else {
			ni := interest + s.inst.Interest[q]
			// Candidate incumbent: check exact feasibility.
			prune := false
			if ni > s.bestInterest {
				order, dist, exact := s.minPath(next)
				switch {
				case dist <= s.epsD+1e-12:
					s.bestInterest = ni
					s.bestOrder = append([]int(nil), order...)
					s.incumbentUpdates++
				case exact && !s.inst.NonMetric:
					// The minimum path of this subset already exceeds ε_d;
					// in a metric space the minimum path is monotone under
					// adding queries, so every superset is infeasible too.
					prune = true
					s.infeasPrunes++
				case exact:
					// Non-metric: this subset is infeasible but a superset
					// might not be; keep exploring.
				default:
					// Insertion bound exceeded ε_d on an oversized subset:
					// feasibility unknown, optimality can no longer be
					// certified.
					s.certified = false
				}
			}
			if !prune {
				s.dfs(idx+1, next, ni, cost+s.inst.Cost[q])
			}
		}
	}
	// Branch 2: exclude items[idx].
	s.dfs(idx+1, chosen, interest, cost)
}

// minPath returns an ordering of subset with (near-)minimal total
// distance. The cheap insertion upper bound is tried first: if it already
// fits ε_d the subset is certainly feasible and the DP is skipped. Only
// otherwise is the exact Held–Karp minimum computed (subset size
// permitting; exact=false when it does not).
func (s *exactSearch) minPath(subset []int) (order []int, dist float64, exact bool) {
	order, dist = insertionPath(s.inst, subset)
	if dist <= s.epsD+1e-12 {
		return order, dist, true
	}
	if len(subset) <= maxHeldKarp {
		order, dist = heldKarpPath(s.inst, subset)
		return order, dist, true
	}
	return order, dist, false
}

// fractionalBound is the LP relaxation of the knapsack over items
// idx..end with the given remaining budget.
func (s *exactSearch) fractionalBound(idx int, budget float64) float64 {
	if budget <= 0 {
		return 0
	}
	// Items are sorted by interest; with unit costs this is also the
	// efficiency order. For general costs re-sorting per node would be
	// exact but costly; interest order keeps the bound valid because we
	// cap by both count and budget below only when costs are uniform.
	// To stay admissible with arbitrary costs, take the best-ratio order.
	total := 0.0
	remaining := budget
	type ic struct{ i, c float64 }
	rest := make([]ic, 0, len(s.items)-idx)
	uniform := true
	first := -1.0
	for _, q := range s.items[idx:] {
		c := s.inst.Cost[q]
		if first < 0 {
			first = c
			//nolint:floateq // fast-path detection only: inexactly-equal costs just take the general sorted path, which is always correct
		} else if c != first {
			uniform = false
		}
		rest = append(rest, ic{s.inst.Interest[q], c})
	}
	if !uniform {
		sort.Slice(rest, func(a, b int) bool { return rest[a].i/rest[a].c > rest[b].i/rest[b].c })
	}
	for _, it := range rest {
		if remaining <= 0 {
			break
		}
		if it.c <= remaining {
			total += it.i
			remaining -= it.c
		} else {
			total += it.i * remaining / it.c
			remaining = 0
		}
	}
	return total
}

// heldKarpPath computes an exact minimum open Hamiltonian path over the
// given query subset (free endpoints) by Held–Karp dynamic programming,
// O(2^k · k²) time and O(2^k · k) space, and returns the path with its
// length. It is the feasibility oracle of the exact solver; k is capped
// by maxHeldKarp.
func heldKarpPath(inst *Instance, subset []int) ([]int, float64) {
	k := len(subset)
	switch k {
	case 0:
		return nil, 0
	case 1:
		return []int{subset[0]}, 0
	case 2:
		return []int{subset[0], subset[1]}, inst.Dist(subset[0], subset[1])
	}
	d := make([][]float64, k)
	for i := range d {
		d[i] = make([]float64, k)
		for j := range d[i] {
			d[i][j] = inst.Dist(subset[i], subset[j])
		}
	}
	size := 1 << k
	dp := make([]float64, size*k)
	parent := make([]int8, size*k)
	for i := range dp {
		dp[i] = math.Inf(1)
		parent[i] = -1
	}
	for j := 0; j < k; j++ {
		dp[(1<<j)*k+j] = 0
	}
	for mask := 1; mask < size; mask++ {
		for last := 0; last < k; last++ {
			if mask&(1<<last) == 0 {
				continue
			}
			cur := dp[mask*k+last]
			if math.IsInf(cur, 1) {
				continue
			}
			for next := 0; next < k; next++ {
				if mask&(1<<next) != 0 {
					continue
				}
				nm := mask | 1<<next
				if v := cur + d[last][next]; v < dp[nm*k+next] {
					dp[nm*k+next] = v
					parent[nm*k+next] = int8(last)
				}
			}
		}
	}
	full := size - 1
	bestJ, best := 0, math.Inf(1)
	for j := 0; j < k; j++ {
		if v := dp[full*k+j]; v < best {
			best, bestJ = v, j
		}
	}
	// Reconstruct backwards.
	orderLocal := make([]int, 0, k)
	mask, j := full, bestJ
	for j >= 0 {
		orderLocal = append(orderLocal, j)
		pj := parent[mask*k+j]
		mask &^= 1 << j
		j = int(pj)
	}
	out := make([]int, len(orderLocal))
	for i, lj := range orderLocal {
		out[len(orderLocal)-1-i] = subset[lj]
	}
	return out, best
}
