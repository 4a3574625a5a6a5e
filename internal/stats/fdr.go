package stats

import "sort"

// BenjaminiHochberg computes BH-adjusted p-values (q-values) for a family
// of tests, in the input order:
//
//	q_(i) = min_{j ≥ i} ( p_(j) · n / j ),  capped at 1
//
// where p_(1) ≤ … ≤ p_(n) are the sorted raw p-values. Rejecting exactly
// the hypotheses with q ≤ α controls the false-discovery rate at α, which
// is the correction the paper applies to all permutation-test p-values
// (§5.1.1).
func BenjaminiHochberg(p []float64) []float64 {
	n := len(p)
	if n == 0 {
		return nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p[order[a]] < p[order[b]] })

	q := make([]float64, n)
	minSoFar := 1.0
	for rank := n; rank >= 1; rank-- {
		idx := order[rank-1]
		v := p[idx] * float64(n) / float64(rank)
		if v < minSoFar {
			minSoFar = v
		}
		q[idx] = minSoFar
	}
	return q
}
