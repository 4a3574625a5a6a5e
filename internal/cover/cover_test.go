package cover

import (
	"math"
	"math/rand"
	"slices"
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
	chosen, err := Greedy(allPairs(n), cands)
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
	chosen, err := Greedy(allPairs(n), cands)
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
		chosen, err := Greedy(universe, cands)
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
		chosen, err := Greedy(universe, cands)
		if err != nil {
			t.Fatal(err)
		}
		_, optW := OptimalForTest(universe, cands)
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
	_, err := Greedy([]Pair{{A: 0, B: 2}}, cands)
	if err == nil {
		t.Error("uncoverable universe: want error")
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	chosen, err := Greedy(nil, EnumerateCandidates(3, 0))
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
	chosen, err := Greedy([]Pair{{A: 1, B: 3}}, cands)
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
