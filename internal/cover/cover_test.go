package cover

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
)

func allPairs(n int) []Pair {
	var out []Pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			out = append(out, Pair{A: a, B: b})
		}
	}
	return out
}

func TestNewPairNormalises(t *testing.T) {
	if NewPair(3, 1) != (Pair{A: 1, B: 3}) {
		t.Error("NewPair did not sort")
	}
	if NewPair(1, 3) != NewPair(3, 1) {
		t.Error("NewPair not order-insensitive")
	}
}

func TestEnumerateCandidates(t *testing.T) {
	cs := EnumerateCandidates(4, 0)
	// 2^4 − 1 (empty excluded by mask) − 4 singletons = 11.
	if len(cs) != 11 {
		t.Errorf("len = %d, want 11", len(cs))
	}
	capped := EnumerateCandidates(4, 2)
	if len(capped) != 6 {
		t.Errorf("capped len = %d, want C(4,2)=6", len(capped))
	}
	for _, c := range capped {
		if len(c.Attrs) != 2 {
			t.Errorf("capped candidate has %d attrs", len(c.Attrs))
		}
	}
}

// enumerateByMask is the enumeration EnumerateCandidates replaced: walk
// every attribute bitmask in ascending order and keep the sets of size
// 2..maxSize.
func enumerateByMask(n, maxSize int) []Candidate {
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var out []Candidate
	for mask := 1; mask < 1<<n; mask++ {
		var attrs []int
		for a := 0; a < n; a++ {
			if mask&(1<<a) != 0 {
				attrs = append(attrs, a)
			}
		}
		if len(attrs) >= 2 && len(attrs) <= maxSize {
			out = append(out, Candidate{Attrs: attrs})
		}
	}
	return out
}

func TestEnumerateCandidatesMatchesMaskOrder(t *testing.T) {
	for n := 0; n <= 14; n++ {
		for maxSize := 0; maxSize <= n; maxSize++ {
			got, want := EnumerateCandidates(n, maxSize), enumerateByMask(n, maxSize)
			if len(got) != len(want) {
				t.Fatalf("n=%d maxSize=%d: %d candidates, want %d", n, maxSize, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i].Attrs, want[i].Attrs) {
					t.Fatalf("n=%d maxSize=%d: candidate %d = %v, want %v", n, maxSize, i, got[i].Attrs, want[i].Attrs)
				}
			}
		}
	}
}

// TestEnumerateCandidatesWide enumerates the capped candidates of 40
// attributes, which walking all 2^40 bitmasks would never finish.
func TestEnumerateCandidatesWide(t *testing.T) {
	cs := EnumerateCandidates(40, 4)
	// C(40,2) + C(40,3) + C(40,4) = 780 + 9,880 + 91,390.
	if len(cs) != 102050 {
		t.Fatalf("len = %d, want 102050", len(cs))
	}
	if first := cs[0].Attrs; !slices.Equal(first, []int{0, 1}) {
		t.Errorf("first = %v, want [0 1]", first)
	}
	if last := cs[len(cs)-1].Attrs; !slices.Equal(last, []int{36, 37, 38, 39}) {
		t.Errorf("last = %v, want [36 37 38 39]", last)
	}
}

func TestGreedyPicksBigCheapSet(t *testing.T) {
	// One big set covering everything, cheaper than the pairs combined.
	n := 4
	cands := EnumerateCandidates(n, 0)
	for i := range cands {
		switch len(cands[i].Attrs) {
		case n:
			cands[i].Weight = 5 // full cube: best ratio 5/6 per pair
		case 3:
			cands[i].Weight = 10
		default:
			cands[i].Weight = 2
		}
	}
	chosen, err := Greedy(context.Background(), allPairs(n), cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || len(cands[chosen[0]].Attrs) != n {
		t.Errorf("greedy chose %v, want the single full set", chosen)
	}
}

func TestGreedyFallsBackToPairs(t *testing.T) {
	// Big sets are prohibitively heavy: the cover should be the 2-sets.
	n := 3
	cands := EnumerateCandidates(n, 0)
	for i := range cands {
		if len(cands[i].Attrs) == 2 {
			cands[i].Weight = 1
		} else {
			cands[i].Weight = 1000
		}
	}
	chosen, err := Greedy(context.Background(), allPairs(n), cands)
	if err != nil {
		t.Fatal(err)
	}
	if TotalWeight(cands, chosen) != 3 {
		t.Errorf("greedy weight = %v, want 3 (three 2-sets)", TotalWeight(cands, chosen))
	}
}

func TestGreedyCoversEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(4)
		cands := EnumerateCandidates(n, 0)
		for i := range cands {
			cands[i].Weight = 1 + rng.Float64()*float64(len(cands[i].Attrs))
		}
		universe := allPairs(n)
		chosen, err := Greedy(context.Background(), universe, cands)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range universe {
			covered := false
			for _, ci := range chosen {
				if cands[ci].covers(p) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("pair %v not covered by %v", p, chosen)
			}
		}
	}
}

// TestGreedyWithinLogFactor checks the classical guarantee: greedy weight
// ≤ H(|U|) × optimal.
func TestGreedyWithinLogFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 4
		cands := EnumerateCandidates(n, 0)
		for i := range cands {
			cands[i].Weight = 0.5 + rng.Float64()*3
		}
		universe := allPairs(n)
		chosen, err := Greedy(context.Background(), universe, cands)
		if err != nil {
			t.Fatal(err)
		}
		_, optW := optimalCover(universe, cands)
		h := 0.0
		for k := 1; k <= len(universe); k++ {
			h += 1 / float64(k)
		}
		if got := TotalWeight(cands, chosen); got > optW*h+1e-9 {
			t.Errorf("greedy %v exceeds H(%d)×opt = %v", got, len(universe), optW*h)
		}
	}
}

func TestGreedyUncoverable(t *testing.T) {
	cands := []Candidate{{Attrs: []int{0, 1}, Weight: 1}}
	_, err := Greedy(context.Background(), []Pair{{A: 0, B: 2}}, cands)
	if err == nil {
		t.Error("uncoverable universe: want error")
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	chosen, err := Greedy(context.Background(), nil, EnumerateCandidates(3, 0))
	if err != nil || len(chosen) != 0 {
		t.Errorf("empty universe: chosen=%v err=%v", chosen, err)
	}
}

func TestGreedySubsetUniverse(t *testing.T) {
	// Only one pair needed: greedy should pick exactly one candidate that
	// covers it, the lightest per gain.
	cands := EnumerateCandidates(5, 0)
	for i := range cands {
		cands[i].Weight = float64(len(cands[i].Attrs))
	}
	chosen, err := Greedy(context.Background(), []Pair{{A: 1, B: 3}}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 {
		t.Fatalf("chose %d sets, want 1", len(chosen))
	}
	c := cands[chosen[0]]
	if len(c.Attrs) != 2 || !c.covers(Pair{A: 1, B: 3}) {
		t.Errorf("chose %v, want the {1,3} 2-set", c.Attrs)
	}
	if math.Abs(TotalWeight(cands, chosen)-2) > 1e-12 {
		t.Errorf("weight = %v, want 2", TotalWeight(cands, chosen))
	}
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

// optimalCover solves the weighted set cover exactly by exhaustive
// subset enumeration. Exponential: only usable for small candidate sets;
// it bounds the greedy's approximation quality.
func optimalCover(universe []Pair, candidates []Candidate) ([]int, float64) {
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

// greedyRescan is the greedy Greedy replaced: on every pick it recounts
// each unused candidate's gain against every uncovered pair. Greedy must
// choose the same candidates in the same order and fail the same way.
func greedyRescan(universe []Pair, candidates []Candidate) ([]int, error) {
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
			if best == -1 || ratio < bestRatio || (ratio == bestRatio && gain > bestGain) {
				best, bestRatio, bestGain = ci, ratio, gain
			}
		}
		if best == -1 {
			return chosen, errors.New("uncoverable")
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

// TestGreedyMatchesRescan holds Greedy to the rescanning greedy on random
// instances: integer weights, so ratio ties are common; universes with
// repeated, reversed, one-attribute and uncoverable pairs; capped and
// uncapped sets.
func TestGreedyMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(8)
		cands := EnumerateCandidates(n, rng.Intn(4))
		for i := range cands {
			cands[i].Weight = float64(1 + rng.Intn(6))
		}
		var universe []Pair
		for _, p := range allPairs(n) {
			switch rng.Intn(4) {
			case 0:
			case 1:
				universe = append(universe, Pair{A: p.B, B: p.A}, p)
			default:
				universe = append(universe, p)
			}
		}
		switch rng.Intn(10) {
		case 0:
			universe = append(universe, Pair{A: 0, B: n})
		case 1:
			universe = append(universe, Pair{A: 1, B: 1})
		}
		rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
		got, err := Greedy(context.Background(), universe, cands)
		want, wantErr := greedyRescan(universe, cands)
		if !slices.Equal(got, want) || (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (n=%d): Greedy = %v, %v; rescan = %v, %v", trial, n, got, err, want, wantErr)
		}
	}
}

// wideInstance is Algorithm 2's instance on n attributes with sets of up
// to 4 attributes and every pair needed, under synthetic weights.
func wideInstance(n int) ([]Pair, []Candidate) {
	rng := rand.New(rand.NewSource(int64(n)))
	cands := EnumerateCandidates(n, 4)
	for i := range cands {
		cands[i].Weight = float64(len(cands[i].Attrs)) * (1 + rng.Float64())
	}
	return allPairs(n), cands
}

// pollLimit is a context whose Err reports Canceled from its
// (limit+1)-th call on.
type pollLimit struct {
	context.Context
	limit int
}

func (c *pollLimit) Err() error {
	if c.limit == 0 {
		return context.Canceled
	}
	c.limit--
	return nil
}

// TestGreedyCancelled: on a 24-attribute instance a cancelled context
// stops Greedy with context.Canceled, before its first pick or between
// two picks.
func TestGreedyCancelled(t *testing.T) {
	universe, cands := wideInstance(24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if chosen, err := Greedy(ctx, universe, cands); !errors.Is(err, context.Canceled) || len(chosen) != 0 {
		t.Errorf("cancelled before the first pick: chosen %v, err %v; want none and context.Canceled", chosen, err)
	}
	chosen, err := Greedy(&pollLimit{Context: context.Background(), limit: 3}, universe, cands)
	if !errors.Is(err, context.Canceled) || len(chosen) != 3 {
		t.Errorf("cancelled after 3 picks: chose %d, err %v; want 3 and context.Canceled", len(chosen), err)
	}
}

// BenchmarkGreedyWide covers every pair of n attributes with sets of up
// to 4 attributes: 12.9k candidates at n = 24.
func BenchmarkGreedyWide(b *testing.B) {
	for _, n := range []int{16, 24} {
		universe, cands := wideInstance(n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for b.Loop() {
				if _, err := Greedy(context.Background(), universe, cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
