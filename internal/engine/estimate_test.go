package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

func TestCountGroupsExact(t *testing.T) {
	rel := covidRelation()
	if got := CountGroups(rel, []int{0}); got != 5 {
		t.Errorf("CountGroups(continent) = %d, want 5", got)
	}
	if got := CountGroups(rel, []int{0, 1}); got != 10 {
		t.Errorf("CountGroups(continent, month) = %d, want 10", got)
	}
}

func TestEstimateGroupsFullSampleIsExact(t *testing.T) {
	rel := randomRelation(2, []int{7, 9}, 1, 400, 5)
	rng := rand.New(rand.NewSource(1))
	exact := float64(CountGroups(rel, []int{0, 1}))
	if got := NewGroupEstimator(rel, rel.NumRows()).Estimate([]int{0, 1}, rng); got != exact {
		t.Errorf("full-sample estimate = %v, want exact %v", got, exact)
	}
	if got := NewGroupEstimator(rel, 0).Estimate([]int{0, 1}, rng); got != exact {
		t.Errorf("sampleSize=0 estimate = %v, want exact %v", got, exact)
	}
}

func TestEstimateGroupsReasonable(t *testing.T) {
	rel := randomRelation(2, []int{20, 20}, 1, 20000, 9)
	rng := rand.New(rand.NewSource(2))
	exact := float64(CountGroups(rel, []int{0, 1}))
	est := NewGroupEstimator(rel, 2000).Estimate([]int{0, 1}, rng)
	if est < exact/3 || est > exact*3 {
		t.Errorf("estimate %v too far from exact %v", est, exact)
	}
}

func TestEstimateGroupsBounded(t *testing.T) {
	rel := randomRelation(1, []int{4}, 1, 1000, 3)
	rng := rand.New(rand.NewSource(3))
	est := NewGroupEstimator(rel, 50).Estimate([]int{0}, rng)
	if est > 4 {
		t.Errorf("estimate %v exceeds domain bound 4", est)
	}
}

func TestEstimateGroupsEmptyRelation(t *testing.T) {
	b := table.NewBuilder("empty", []string{"a"}, nil)
	rel := b.Build()
	rng := rand.New(rand.NewSource(4))
	if got := NewGroupEstimator(rel, 10).Estimate([]int{0}, rng); got != 0 {
		t.Errorf("estimate on empty relation = %v, want 0", got)
	}
}

func TestSampleRowsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := sampleRows(100, 30, rng)
	if len(rows) != 30 {
		t.Fatalf("len = %d, want 30", len(rows))
	}
	requireDistinctRows(t, rows, 100)
	if got := sampleRows(5, 10, rng); len(got) != 5 {
		t.Errorf("oversized sample len = %d, want 5", len(got))
	}

	// The estimator's shared buffer draws distinct rows too, and is back
	// to the identity after every estimate.
	rel := randomRelation(1, []int{3}, 1, 100, 5)
	e := NewGroupEstimator(rel, 30)
	for round := 0; round < 3; round++ {
		requireDistinctRows(t, e.sample(rng), 100)
		e.restore()
		for i, v := range e.idx {
			if v != i {
				t.Fatalf("round %d: idx[%d] = %d after restore", round, i, v)
			}
		}
	}
}

func requireDistinctRows(t *testing.T, rows []int, n int) {
	t.Helper()
	seen := map[int]bool{}
	for _, r := range rows {
		if r < 0 || r >= n {
			t.Errorf("row %d out of range", r)
		}
		if seen[r] {
			t.Errorf("row %d duplicated", r)
		}
		seen[r] = true
	}
}

func TestEstimateNeverNaN(t *testing.T) {
	rel := randomRelation(3, []int{3, 3, 3}, 1, 100, 6)
	rng := rand.New(rand.NewSource(6))
	for _, size := range []int{1, 2, 10, 50, 99, 100} {
		if got := NewGroupEstimator(rel, size).Estimate([]int{0, 1, 2}, rng); math.IsNaN(got) || got < 0 {
			t.Errorf("estimate(size=%d) = %v", size, got)
		}
	}
}

// estimateGroupsOracle is the per-candidate estimator GroupEstimator
// replaced: a fresh n-row Fisher–Yates buffer and a fresh group index for
// every attribute set.
func estimateGroupsOracle(rel *table.Relation, attrs []int, sampleSize int, rng *rand.Rand) float64 {
	n := rel.NumRows()
	if n == 0 {
		return 0
	}
	if sampleSize <= 0 || sampleSize >= n {
		return float64(CountGroups(rel, attrs))
	}
	sorted := sortedAttrs(attrs)
	freq := groupFreqs(rel, sorted, sampleRows(n, sampleSize, rng))
	d, f1 := len(freq), 0
	for _, c := range freq {
		if c == 1 {
			f1++
		}
	}
	est := float64(d) + (math.Sqrt(float64(n)/float64(sampleSize))-1)*float64(f1)
	bound := float64(n)
	prod := 1.0
	for _, a := range sorted {
		prod *= float64(rel.DomSize(a))
		if prod > bound {
			prod = bound
			break
		}
	}
	return math.Min(est, math.Min(bound, prod))
}

// sampleRows draws k distinct row indexes uniformly without replacement
// (partial Fisher–Yates over a fresh buffer).
func sampleRows(n, k int, rng *rand.Rand) []int {
	if k >= n {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// requireEstimatorMatchesOracle estimates every attribute set in order with
// one GroupEstimator and with the per-candidate oracle, each on its own
// rng from one seed: the estimates must agree bit for bit, and both rngs
// must be left in the same state.
func requireEstimatorMatchesOracle(t *testing.T, label string, rel *table.Relation, sets [][]int, sampleSize int, seed int64) {
	t.Helper()
	rngE := rand.New(rand.NewSource(seed))
	rngO := rand.New(rand.NewSource(seed))
	e := NewGroupEstimator(rel, sampleSize)
	for _, attrs := range sets {
		got := e.Estimate(attrs, rngE)
		want := estimateGroupsOracle(rel, attrs, sampleSize, rngO)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: sample %d attrs %v: estimate %v, oracle %v", label, sampleSize, attrs, got, want)
		}
	}
	if got, want := rngE.Int63(), rngO.Int63(); got != want {
		t.Fatalf("%s: sample %d: rng state differs after the batch (%d vs %d)", label, sampleSize, got, want)
	}
}

// TestGroupEstimatorMatchesOracle holds the shared-buffer estimator to the
// per-candidate one on random relations of five attributes, over all 31
// attribute sets, at sample sizes on both sides of every edge. Domains
// from 1 to 40 put the key spaces of the sets on both sides of the sample
// size, so both the dense count table and groupFreqs run.
func TestGroupEstimatorMatchesOracle(t *testing.T) {
	var sets [][]int
	for mask := 1; mask < 1<<5; mask++ {
		var attrs []int
		for a := 4; a >= 0; a-- { // descending: Estimate sorts its input
			if mask&(1<<a) != 0 {
				attrs = append(attrs, a)
			}
		}
		sets = append(sets, attrs)
	}
	for i := 0; i < 30; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		doms := make([]int, 5)
		for a := range doms {
			doms[a] = 1 + rng.Intn(40)
		}
		n := 1 + rng.Intn(400)
		rel := randomRelation(5, doms, 1, n, int64(i))
		for _, size := range []int{-1, 0, 1, 2, n / 3, n - 1, n, n + 7} {
			requireEstimatorMatchesOracle(t, fmt.Sprintf("rel %d (n=%d, doms %v)", i, n, doms), rel, sets, size, int64(i))
		}
	}
}

// TestGroupEstimatorRegimes covers the key regimes the estimator meets
// outside the random relations: a key space overflowing uint64 (the
// byte-key groupFreqs), a map-regime one, and the empty relation.
func TestGroupEstimatorRegimes(t *testing.T) {
	wide := make([]int, 64)
	doms := make([]int, 64)
	for a := range wide {
		wide[a], doms[a] = a, 2
	}
	rel := randomRelation(64, doms, 1, 300, 8)
	if ks := newKeySpace(rel, wide); ks.radix != nil {
		t.Fatalf("64 two-valued attributes: key space fits uint64 (%d cells)", ks.cells)
	}
	for _, size := range []int{1, 10, 150, 299} {
		requireEstimatorMatchesOracle(t, "byte-key", rel, [][]int{wide, {0, 1, 2}, wide[:40]}, size, 9)
	}

	big := randomRelation(3, []int{40, 40, 40}, 1, 2000, 10)
	for _, size := range []int{16, 500, 1999} {
		requireEstimatorMatchesOracle(t, "map", big, [][]int{{0, 1, 2}, {0, 1}, {2}}, size, 11)
	}

	empty := table.NewBuilder("empty", []string{"a", "b"}, nil).Build()
	for _, size := range []int{-1, 0, 1, 10} {
		requireEstimatorMatchesOracle(t, "empty", empty, [][]int{{0, 1}, {1}}, size, 12)
	}
}
