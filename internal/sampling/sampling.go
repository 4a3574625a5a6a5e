// Package sampling implements the two offline sampling strategies of
// §5.1.2 that speed up the statistical tests:
//
//   - random-sampling: a uniform sample of the relation;
//   - unbalanced-sampling: per-attribute stratified samples that balance
//     the number of tuples per attribute value, so very selective values
//     are not under-represented. Because balance is only meaningful with
//     respect to one attribute at a time, the unbalanced strategy samples
//     "each of the n categorical attributes independently": tests on
//     attribute B run on the sample stratified by B.
package sampling

import (
	"fmt"
	"math/rand"

	"comparenb/internal/table"
)

// Strategy selects a sampling strategy for the statistical tests.
type Strategy int

const (
	// None runs the tests on the full relation.
	None Strategy = iota
	// Random is the uniform random-sampling strategy.
	Random
	// Unbalanced is the per-attribute stratified strategy.
	Unbalanced
)

func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Random:
		return "random"
	case Unbalanced:
		return "unbalanced"
	default:
		return "Strategy(?)"
	}
}

// ParseStrategy inverts String: it returns the strategy named name.
func ParseStrategy(name string) (Strategy, error) {
	for s := None; s <= Unbalanced; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown sampling %q (none, random, unbalanced)", name)
}

// RandomSample draws ⌈frac·N⌉ rows uniformly without replacement and
// materialises them as a sub-relation (dictionaries shared with the
// parent). frac is clamped to [0, 1].
func RandomSample(rel *table.Relation, frac float64, rng *rand.Rand) *table.Relation {
	n := rel.NumRows()
	k := targetSize(n, frac)
	if k >= n {
		return rel
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	rows := idx[:k]
	return rel.Select(rows)
}

// UnbalancedSample draws a sample of ⌈frac·N⌉ rows stratified by the given
// categorical attribute: every attribute value receives an equal share of
// the budget (small strata are taken whole and their leftover budget is
// redistributed to larger strata). Tests on attribute attr should use this
// sample, which preserves minority values far better than a uniform sample
// at the same rate.
func UnbalancedSample(rel *table.Relation, attr int, frac float64, rng *rand.Rand) *table.Relation {
	n := rel.NumRows()
	k := targetSize(n, frac)
	if k >= n {
		return rel
	}
	col := rel.CatCol(attr)
	strata := make([][]int, rel.DomSize(attr))
	for row, c := range col {
		strata[c] = append(strata[c], row)
	}
	// Drop empty strata (codes can exist in the dictionary without rows
	// when sampling a sample).
	nonEmpty := strata[:0]
	for _, s := range strata {
		if len(s) > 0 {
			nonEmpty = append(nonEmpty, s)
		}
	}
	strata = nonEmpty

	take := equalShares(strata, k)
	var rows []int
	for si, s := range strata {
		t := take[si]
		if t >= len(s) {
			rows = append(rows, s...)
			continue
		}
		// Partial Fisher–Yates within the stratum.
		local := append([]int(nil), s...)
		for i := 0; i < t; i++ {
			j := i + rng.Intn(len(local)-i)
			local[i], local[j] = local[j], local[i]
		}
		rows = append(rows, local[:t]...)
	}
	return rel.Select(rows)
}

// equalShares allocates budget k across strata as evenly as possible,
// redistributing the unused budget of strata smaller than their share.
func equalShares(strata [][]int, k int) []int {
	take := make([]int, len(strata))
	remainingBudget := k
	// Iteratively: give each unfilled stratum an equal share; strata that
	// can't use their full share return the surplus.
	active := make([]int, 0, len(strata))
	for i := range strata {
		active = append(active, i)
	}
	for remainingBudget > 0 && len(active) > 0 {
		share := remainingBudget / len(active)
		if share == 0 {
			// Distribute the last few units one by one, front to back.
			for _, si := range active {
				if remainingBudget == 0 {
					break
				}
				if take[si] < len(strata[si]) {
					take[si]++
					remainingBudget--
				}
			}
			break
		}
		next := active[:0]
		for _, si := range active {
			room := len(strata[si]) - take[si]
			if room <= share {
				take[si] += room
				remainingBudget -= room
			} else {
				take[si] += share
				remainingBudget -= share
				next = append(next, si)
			}
		}
		active = next
	}
	return take
}

func targetSize(n int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return n
	}
	k := int(frac*float64(n) + 0.999999)
	if k > n {
		k = n
	}
	return k
}
