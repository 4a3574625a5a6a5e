// Package cover implements the group-by merging of §5.2.2 (Algorithm 2):
// choosing the cheapest collection of group-by sets that covers every
// 2-group-by set, as a greedy weighted set cover. Hypothesis queries over
// a pair {A, B} can then be answered by rolling up any chosen superset
// cube, so the pair's data is "evaluated for free once in memory".
package cover

import (
	"context"
	"fmt"
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
// (§5.2.2, [28]). Ties on the ratio go to the larger gain, then to the
// lower index. It returns the indexes of the chosen candidates, in choice
// order, and an error if the candidates cannot cover the universe.
//
// Each candidate's gain is kept up to date rather than recounted: when a
// pick covers a pair, every candidate containing that pair loses one, so
// a pick costs one scan of the candidates' ratios. ctx is polled once per
// pick.
func Greedy(ctx context.Context, universe []Pair, candidates []Candidate) ([]int, error) {
	pairID := make(map[Pair]int, len(universe))
	for _, p := range universe {
		p = NewPair(p.A, p.B)
		if _, ok := pairID[p]; !ok {
			pairID[p] = len(pairID)
		}
	}
	// holders[id] lists the candidates that contain pair id; gain[ci]
	// counts the still-uncovered pairs candidate ci contains. A pair
	// {a, b} of a candidate's attributes is visited once, as a ≤ b.
	holders := make([][]int32, len(pairID))
	gain := make([]int, len(candidates))
	for ci, c := range candidates {
		for i, a := range c.Attrs {
			for _, b := range c.Attrs[i:] {
				if id, ok := pairID[NewPair(a, b)]; ok {
					holders[id] = append(holders[id], int32(ci))
					gain[ci]++
				}
			}
		}
	}
	covered := make([]bool, len(pairID))
	uncovered := len(pairID)
	var chosen []int
	for uncovered > 0 {
		if err := ctx.Err(); err != nil {
			return chosen, err
		}
		best := -1
		bestRatio := 0.0
		bestGain := 0
		for ci, c := range candidates {
			if gain[ci] == 0 {
				continue
			}
			ratio := c.Weight / float64(gain[ci])
			//nolint:floateq // deterministic tie-break: candidates are scanned in fixed index order, so exact equality picks a stable winner
			if best == -1 || ratio < bestRatio || (ratio == bestRatio && gain[ci] > bestGain) {
				best, bestRatio, bestGain = ci, ratio, gain[ci]
			}
		}
		if best == -1 {
			return chosen, fmt.Errorf("cover: %d pairs cannot be covered by any candidate", uncovered)
		}
		chosen = append(chosen, best)
		c := candidates[best]
		for i, a := range c.Attrs {
			for _, b := range c.Attrs[i:] {
				id, ok := pairID[NewPair(a, b)]
				if !ok || covered[id] {
					continue
				}
				covered[id] = true
				uncovered--
				for _, h := range holders[id] {
					gain[h]--
				}
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
