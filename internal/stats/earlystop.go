package stats

import "math"

// earlyStopDelta is the per-check confidence parameter δ of the
// sequential Monte-Carlo bound: each block-boundary check uses a
// Hoeffding interval that covers the true exceedance probability with
// probability 1−δ. With permBlock = 64 and the pipeline's default
// permutation counts there are at most a handful of checks per test, so
// the union-bound error stays within a few percent — acceptable for a
// mode that only runs when the time budget is already under pressure.
const earlyStopDelta = 0.01

// PermBlock is the draw-block width of the seeded permutation streams,
// exported so budget-pressure callers can align truncation caps to whole
// blocks (PermTests only checks its early-stop bound at block
// boundaries).
const PermBlock = permBlock

// earlyStopDecided reports whether, after m evaluated permutations with
// ge exceedances, the verdict of the test relative to alpha is already
// certain up to the Hoeffding bound: the true exceedance probability p
// satisfies |ge/m − p| ≤ sqrt(ln(2/δ)/(2m)) with probability 1−δ, so
// once the whole interval falls on one side of alpha, evaluating more
// permutations cannot (with confidence 1−δ) flip the verdict.
//
// The "certainly insignificant" direction is exact with respect to the
// BH correction: adjusted q-values are never smaller than the raw p, so
// p > alpha already implies q > alpha. The "certainly significant"
// direction is a heuristic under BH (the per-test threshold can be as
// small as alpha/n); the truncated p̂ still enters the correction, it
// is just a coarser estimate — which is the recorded degradation.
func earlyStopDecided(ge, m int, alpha float64) bool {
	if m == 0 {
		return false
	}
	phat := float64(ge) / float64(m)
	eps := math.Sqrt(math.Log(2/earlyStopDelta) / (2 * float64(m)))
	return phat+eps < alpha || phat-eps > alpha
}
