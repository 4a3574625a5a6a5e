package engine

import (
	"sync/atomic"
	"testing"

	"comparenb/internal/faultinject"
)

func TestEstimateCubeBytesNeverUnderCounts(t *testing.T) {
	rel := randomRelation(3, []int{6, 5, 4}, 2, 2500, 9)
	for _, attrs := range [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}} {
		est := EstimateCubeBytes(rel, attrs)
		actual := mustBuildCube(t, rel, attrs, 1).MemoryFootprint()
		if est < actual {
			t.Errorf("attrs %v: estimate %d < actual footprint %d", attrs, est, actual)
		}
	}
	// Tiny domains on a large relation: the domain product, not the row
	// count, must bound the estimate.
	small := randomRelation(2, []int{2, 2}, 1, 10000, 4)
	perGroup := int64(2*4 + 8 + 1*3*8)
	if est := EstimateCubeBytes(small, []int{0, 1}); est > 4*perGroup {
		t.Errorf("estimate %d ignores the domain-product bound %d", est, 4*perGroup)
	}
}

func TestAdmitRefusesOversizedCube(t *testing.T) {
	rel := randomRelation(2, []int{6, 6}, 1, 2000, 2)
	cc := NewCubeCache(0)
	cc.SetMemBudget(1) // nothing fits
	c1 := mustGetOrBuild(t, cc, rel, []int{0, 1})
	c2 := mustGetOrBuild(t, cc, rel, []int{0, 1})
	if c1 == nil || c2 == nil {
		t.Fatal("refusal must not refuse the answer, only the caching")
	}
	if c1 == c2 {
		t.Error("oversized cube was cached despite the memory budget")
	}
	s := cc.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("contents = %d entries / %d B, want empty", s.Entries, s.Bytes)
	}
	if s.AdmitRefusals == 0 {
		t.Error("no AdmitRefusals recorded for a cube over the budget")
	}
	if s.Misses != 2 {
		t.Errorf("misses = %d, want 2 (both calls fell through to a build)", s.Misses)
	}
}

func TestAdmitEvictsLargestFirstToFit(t *testing.T) {
	rel := randomRelation(3, []int{6, 6, 6}, 1, 4000, 5)
	big := mustBuildCube(t, rel, []int{0, 1, 2}, 1)
	cc := NewCubeCache(0)
	// Room for roughly one big cube.
	cc.SetMemBudget(big.MemoryFootprint())
	for _, attrs := range [][]int{{0, 1, 2}, {0, 1}, {0, 2}, {0}} {
		// BuildThrough, not GetOrBuild: rollups of the wide cube would
		// change which entries exist depending on eviction timing.
		if mustBuildThrough(t, cc, rel, attrs) == nil {
			t.Fatalf("build of %v failed under the memory budget", attrs)
		}
	}
	s := cc.Stats()
	if s.Bytes > big.MemoryFootprint() {
		t.Errorf("cache holds %d B, budget %d — admission never enforced", s.Bytes, big.MemoryFootprint())
	}
	if s.AdmitEvictions == 0 {
		t.Error("no AdmitEvictions recorded despite overflowing inserts")
	}
	// Largest-first victim rule: the wide cube is gone, the narrow survives.
	if cc.Get(rel, []int{0, 1, 2}) != nil {
		t.Error("widest cube survived admission eviction")
	}
	if cc.Get(rel, []int{0}) == nil {
		t.Error("narrowest cube was evicted before the budget required it")
	}
}

func TestAdmitDisarmedKeepsTrimOnlyBehaviour(t *testing.T) {
	rel := randomRelation(2, []int{4, 4}, 1, 1000, 3)
	cc := NewCubeCache(0) // no soft budget, no mem budget
	for _, attrs := range [][]int{{0, 1}, {0}, {1}} {
		mustGetOrBuild(t, cc, rel, attrs)
	}
	s := cc.Stats()
	if s.AdmitEvictions != 0 || s.AdmitRefusals != 0 {
		t.Errorf("disarmed cache recorded admission actions: %+v", s)
	}
	if s.Entries != 3 {
		t.Errorf("entries = %d, want 3", s.Entries)
	}
}

func TestAdmitFiresCacheAdmitSite(t *testing.T) {
	var fired atomic.Int64
	defer faultinject.Set(faultinject.CacheAdmit,
		faultinject.Always(func() { fired.Add(1) }))()
	rel := randomRelation(2, []int{4, 4}, 1, 500, 1)

	unarmed := NewCubeCache(0)
	mustGetOrBuild(t, unarmed, rel, []int{0})
	if fired.Load() != 0 {
		t.Fatalf("CacheAdmit fired %d times with no memory budget armed", fired.Load())
	}

	armed := NewCubeCache(0)
	armed.SetMemBudget(1 << 30)
	mustGetOrBuild(t, armed, rel, []int{0})
	mustBuildThrough(t, armed, rel, []int{1})
	mustGetOrBuild(t, armed, rel, []int{0}) // exact hit: no admission decision
	if fired.Load() != 2 {
		t.Errorf("CacheAdmit fired %d times, want 2 (one per build-path admission)", fired.Load())
	}
}
