package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"comparenb/internal/table"
)

// cachedCube returns the cube cc holds for exactly this attribute set, or
// nil, without touching the hit counters.
func cachedCube(cc *CubeCache, rel *table.Relation, attrs []int) *Cube {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.entries[cacheKey{rel: rel, attrs: attrsKey(sortedAttrs(attrs))}]; ok {
		return e.cube
	}
	return nil
}

func TestCacheExactHitReturnsSameCube(t *testing.T) {
	rel := randomRelation(2, []int{4, 5}, 1, 300, 1)
	cc := NewCubeCache(0)
	c1 := mustGetOrBuild(t, cc, rel, []int{0, 1})
	c2 := mustGetOrBuild(t, cc, rel, []int{1, 0}) // order-insensitive key
	if c1 != c2 {
		t.Fatal("second GetOrBuild did not return the cached cube")
	}
	s := cc.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.RollupHits != 0 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", s)
	}
	if s.Entries != 1 || s.Bytes != c1.MemoryFootprint() {
		t.Errorf("contents = %d entries / %d B, want 1 entry / %d B", s.Entries, s.Bytes, c1.MemoryFootprint())
	}
}

// TestCacheRollupAnswersSubset checks the rollup-aware path: with only a
// superset cube cached, a subset group-by is answered by roll-up (counted
// as RollupHits, not Misses) and matches a fresh direct build.
func TestCacheRollupAnswersSubset(t *testing.T) {
	rel := randomRelation(3, []int{4, 5, 3}, 2, 2000, 7)
	cc := NewCubeCache(0)
	mustGetOrBuild(t, cc, rel, []int{0, 1, 2})
	rolled := mustGetOrBuild(t, cc, rel, []int{0, 2})
	s := cc.Stats()
	if s.RollupHits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 rollup hit + 1 miss", s)
	}
	direct := mustBuildCube(t, rel, []int{0, 2}, 1)
	if rolled.NumGroups() != direct.NumGroups() {
		t.Fatalf("rolled groups = %d, direct = %d", rolled.NumGroups(), direct.NumGroups())
	}
	// Same relation + deterministic group order on both paths, so compare
	// group-by-group; sums via tolerance (roll-up reassociates the adds).
	for g := 0; g < rolled.NumGroups(); g++ {
		ka, kb := rolled.GroupKey(g), direct.GroupKey(g)
		if ka[0] != kb[0] || ka[1] != kb[1] {
			t.Fatalf("group %d key %v vs direct %v", g, ka, kb)
		}
		if rolled.Count(g) != direct.Count(g) {
			t.Fatalf("group %d count %d vs direct %d", g, rolled.Count(g), direct.Count(g))
		}
		for m := 0; m < rel.NumMeasures(); m++ {
			for _, agg := range AllAggs {
				a, b := rolled.Value(g, m, agg), direct.Value(g, m, agg)
				if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
					t.Errorf("group %d %s(m%d) = %v via rollup, %v direct", g, agg, m, a, b)
				}
			}
		}
	}
}

// TestCacheBuildThroughIgnoresSupersets pins BuildThrough's provenance
// contract: even with a covering superset cached, it aggregates the base
// relation, so its output is bit-identical to a plain BuildCube.
func TestCacheBuildThroughIgnoresSupersets(t *testing.T) {
	rel := randomRelation(3, []int{4, 5, 3}, 1, 1500, 3)
	cc := NewCubeCache(0)
	mustGetOrBuild(t, cc, rel, []int{0, 1, 2})
	through := mustBuildThrough(t, cc, rel, []int{0, 1})
	requireCubesBitIdentical(t, "BuildThrough", mustBuildCube(t, rel, []int{0, 1}, 1), through)
	s := cc.Stats()
	if s.RollupHits != 0 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 2 misses and no rollup hits", s)
	}
	// A second call is an exact hit on the now-cached cube.
	if mustBuildThrough(t, cc, rel, []int{0, 1}) != through {
		t.Error("second BuildThrough did not return the cached cube")
	}
}

func TestCacheTrimRespectsBudget(t *testing.T) {
	rel := randomRelation(3, []int{6, 6, 6}, 1, 4000, 5)
	big := mustBuildCube(t, rel, []int{0, 1, 2}, 1)
	budget := big.MemoryFootprint() // room for roughly one big cube
	cc := NewCubeCache(budget)
	for _, attrs := range [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0}} {
		mustGetOrBuild(t, cc, rel, attrs)
	}
	before := cc.Stats()
	cc.Trim()
	after := cc.Stats()
	if after.Bytes > budget {
		t.Errorf("after Trim: %d B cached, budget %d", after.Bytes, budget)
	}
	if after.Evictions == 0 {
		t.Errorf("Trim evicted nothing from %d B over a %d B budget", before.Bytes, budget)
	}
	if after.Entries >= before.Entries {
		t.Errorf("entries %d -> %d, want fewer", before.Entries, after.Entries)
	}
	// Largest-first victim rule: the widest cube goes before the small ones.
	if cachedCube(cc, rel, []int{0, 1, 2}) != nil {
		t.Error("largest cube survived Trim despite being the first victim")
	}
	if cachedCube(cc, rel, []int{0}) == nil {
		t.Error("smallest cube was evicted before the budget required it")
	}
}

// TestCacheTrimVictimsIndependentOfInsertionOrder checks the determinism
// half of the eviction contract: two caches holding the same entries, filled
// in different orders, keep exactly the same survivors.
func TestCacheTrimVictimsIndependentOfInsertionOrder(t *testing.T) {
	rel := randomRelation(3, []int{5, 5, 5}, 1, 3000, 8)
	sets := [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0}, {1}, {2}}
	budget := mustBuildCube(t, rel, []int{0, 1}, 1).MemoryFootprint() * 2
	a := NewCubeCache(budget)
	b := NewCubeCache(budget)
	for _, s := range sets {
		mustGetOrBuild(t, a, rel, s)
	}
	for i := len(sets) - 1; i >= 0; i-- {
		// Reverse order, and rollups now resolve differently — force exact
		// builds so both caches hold the same entry set.
		mustBuildThrough(t, b, rel, sets[i])
	}
	a.Trim()
	b.Trim()
	for _, s := range sets {
		if (cachedCube(a, rel, s) != nil) != (cachedCube(b, rel, s) != nil) {
			t.Errorf("attrs %v: survived in one cache but not the other", s)
		}
	}
	if sa, sb := a.Stats(), b.Stats(); sa.Bytes != sb.Bytes || sa.Entries != sb.Entries {
		t.Errorf("post-Trim contents differ: %d B/%d entries vs %d B/%d entries",
			a.Stats().Bytes, a.Stats().Entries, b.Stats().Bytes, b.Stats().Entries)
	}
}

// TestCacheConcurrentGetOrBuild exercises the lock discipline under -race:
// many goroutines demand overlapping attribute sets; every caller of a key
// must observe one canonical cube.
func TestCacheConcurrentGetOrBuild(t *testing.T) {
	rel := randomRelation(3, []int{4, 4, 4}, 1, 2000, 6)
	cc := NewCubeCache(0)
	sets := [][]int{{0, 1}, {1, 2}, {0, 2}, {0, 1, 2}, {0}, {1}, {2}}
	const workers = 8
	got := make([][]*Cube, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*Cube, len(sets))
			for i := range sets {
				c, err := cc.GetOrBuild(context.Background(), rel, sets[(i+w)%len(sets)], 1)
				if err != nil {
					t.Error(err)
				}
				out[(i+w)%len(sets)] = c
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i := range sets {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("attrs %v: worker %d observed a different cube", sets[i], w)
			}
		}
	}
	s := cc.Stats()
	if s.Entries != len(sets) {
		t.Errorf("entries = %d, want %d", s.Entries, len(sets))
	}
}
