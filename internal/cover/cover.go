// Package cover implements the group-by merging of §5.2.2 (Algorithm 2):
// choosing the cheapest collection of group-by sets that covers every
// 2-group-by set, as a greedy weighted set cover. Hypothesis queries over
// a pair {A, B} can then be answered by rolling up any chosen superset
// cube, so the pair's data is "evaluated for free once in memory".
package cover

import (
	"fmt"
	"sort"
)

// Pair is an unordered 2-group-by set {A, B}, stored with A < B.
type Pair struct {
	A, B int
}

// NewPair normalises an unordered pair.
func NewPair(a, b int) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Candidate is a group-by set g ∈ G = 2^A minus singletons, with the
// weight the optimizer estimated for its memory footprint.
type Candidate struct {
	Attrs  []int // sorted attribute indexes, len ≥ 2
	Weight float64
}

// covers reports whether the candidate's attribute set contains both
// members of the pair.
func (c Candidate) covers(p Pair) bool {
	okA, okB := false, false
	for _, a := range c.Attrs {
		if a == p.A {
			okA = true
		}
		if a == p.B {
			okB = true
		}
	}
	return okA && okB
}

// EnumerateCandidates builds G = 2^A \ singletons over n attributes,
// optionally capped at maxSize attributes per set (0 = no cap). Weights
// are filled by the caller (Algorithm 2 line 6 "estimate the size of q").
//
// Sets come in ascending order of their attribute bitmask, the order
// Greedy's tie-break and the estimator's sample stream see them in, and
// only sets of the wanted sizes are visited: the cost is the output's
// size, not 2^n.
func EnumerateCandidates(n, maxSize int) []Candidate {
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var out []Candidate
	// top holds the set's attributes largest first. Bitmask order ranks
	// sets by their largest attribute, then by the rest of the set in the
	// same order, so a set is followed by its extensions below its
	// smallest attribute, each extension by its own.
	top := make([]int, 0, maxSize)
	var extend func(below int)
	extend = func(below int) {
		if len(top) >= 2 {
			attrs := make([]int, len(top))
			for i, a := range top {
				attrs[len(top)-1-i] = a
			}
			out = append(out, Candidate{Attrs: attrs})
		}
		if len(top) == maxSize {
			return
		}
		for a := 0; a < below; a++ {
			top = append(top, a)
			extend(a)
			top = top[:len(top)-1]
		}
	}
	extend(n)
	return out
}

// Greedy approximates the weighted set cover: it repeatedly picks the
// candidate with the best weight-per-newly-covered-pair ratio until every
// pair in universe is covered, the classical O(|U|·log|G|)-quality greedy
// (§5.2.2, [28]). It returns the indexes of the chosen candidates, in
// choice order, and an error if the candidates cannot cover the universe.
func Greedy(universe []Pair, candidates []Candidate) ([]int, error) {
	uncovered := make(map[Pair]bool, len(universe))
	for _, p := range universe {
		uncovered[NewPair(p.A, p.B)] = true
	}
	var chosen []int
	used := make([]bool, len(candidates))
	for len(uncovered) > 0 {
		best := -1
		bestRatio := 0.0
		bestGain := 0
		for ci, c := range candidates {
			if used[ci] {
				continue
			}
			gain := 0
			for p := range uncovered {
				if c.covers(p) {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			ratio := c.Weight / float64(gain)
			//nolint:floateq // deterministic tie-break: candidates are scanned in fixed index order, so exact equality picks a stable winner
			if best == -1 || ratio < bestRatio || (ratio == bestRatio && gain > bestGain) {
				best, bestRatio, bestGain = ci, ratio, gain
			}
		}
		if best == -1 {
			return chosen, fmt.Errorf("cover: %d pairs cannot be covered by any candidate", len(uncovered))
		}
		used[best] = true
		chosen = append(chosen, best)
		for p := range uncovered {
			if candidates[best].covers(p) {
				delete(uncovered, p)
			}
		}
	}
	return chosen, nil
}

// TotalWeight sums the weights of the chosen candidates.
func TotalWeight(candidates []Candidate, chosen []int) float64 {
	w := 0.0
	for _, ci := range chosen {
		w += candidates[ci].Weight
	}
	return w
}

// OptimalForTest solves the weighted set cover exactly by exhaustive
// subset enumeration. Exponential: only usable for small candidate sets;
// tests use it to bound the greedy's approximation quality.
func OptimalForTest(universe []Pair, candidates []Candidate) ([]int, float64) {
	norm := make([]Pair, len(universe))
	for i, p := range universe {
		norm[i] = NewPair(p.A, p.B)
	}
	bestW := -1.0
	var best []int
	for mask := 0; mask < 1<<len(candidates); mask++ {
		w := 0.0
		var sel []int
		for ci := range candidates {
			if mask&(1<<ci) != 0 {
				w += candidates[ci].Weight
				sel = append(sel, ci)
			}
		}
		if bestW >= 0 && w >= bestW {
			continue
		}
		ok := true
		for _, p := range norm {
			covered := false
			for _, ci := range sel {
				if candidates[ci].covers(p) {
					covered = true
					break
				}
			}
			if !covered {
				ok = false
				break
			}
		}
		if ok {
			bestW = w
			best = sel
		}
	}
	sort.Ints(best)
	return best, bestW
}
