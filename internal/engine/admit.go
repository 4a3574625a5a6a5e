package engine

import (
	"comparenb/internal/faultinject"
	"comparenb/internal/table"
)

// SetMemBudget arms the cache's hard memory budget, in MemoryFootprint
// bytes. Unlike the soft budget passed to NewCubeCache — which only
// bounds what survives a phase-boundary Trim — the memory budget is
// enforced at admission time, before a build's result is inserted:
// entries are evicted largest-first to make room, and a cube whose
// footprint alone exceeds the budget is never cached at all (the build
// still happens and the answer is still returned, so queries always
// complete — the run just loses reuse, which the pipeline records as a
// degradation). b <= 0 disarms the budget, restoring the Trim-only
// behaviour that the byte-identity contract relies on.
func (cc *CubeCache) SetMemBudget(b int64) {
	cc.mu.Lock()
	cc.memBudget = b
	cc.mu.Unlock()
}

// EstimateCubeBytes upper-bounds the MemoryFootprint of a cube over
// attrs before building it: the group count is at most both the row
// count and the product of the active-domain sizes, and each group
// costs the same fixed record as Cube.MemoryFootprint charges. The
// estimate is what admission compares against the memory budget, so it
// must never under-count — both bounds are exact upper bounds.
func EstimateCubeBytes(rel *table.Relation, attrs []int) int64 {
	groups := int64(rel.NumRows())
	prod := int64(1)
	for _, a := range attrs {
		d := int64(rel.DomSize(a))
		if d < 1 {
			d = 1
		}
		prod *= d
		if prod >= groups {
			// Already at the row-count cap; stop before prod can overflow
			// (each factor is <= rows, so prod <= rows^2 fits comfortably).
			prod = groups
			break
		}
	}
	if prod < groups {
		groups = prod
	}
	return groups * groupBytes(rel, len(attrs))
}

// admitPrepare is the pre-build half of memory-budget admission: it
// fires the CacheAdmit fault-injection site, estimates the candidate's
// footprint, evicts largest-first to open headroom, and reports whether
// the candidate may be cached at all. A false return means the estimate
// alone exceeds the budget — the caller must still build (answers are
// never refused, only caching is) but must not insert.
//
// Called without cc.mu held: registered hooks may sleep, and sleeping
// under the cache lock would stall every concurrent lookup.
func (cc *CubeCache) admitPrepare(rel *table.Relation, sorted []int) bool {
	cc.mu.Lock()
	budget := cc.memBudget
	cc.mu.Unlock()
	if budget <= 0 {
		return true
	}
	faultinject.Fire(faultinject.CacheAdmit)
	est := EstimateCubeBytes(rel, sorted)
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if est > cc.memBudget {
		cc.admitRefusals.Inc()
		return false
	}
	cc.evictForLocked(est)
	return true
}

// admitInsertLocked performs the post-build half of admission and, when
// the cube is admitted, inserts it. `admitted` is admitPrepare's
// verdict; the actual footprint is re-checked because the pre-build
// number was only an estimate. Callers hold cc.mu.
func (cc *CubeCache) admitInsertLocked(key cacheKey, cube *Cube, sorted []int, admitted bool) {
	if cc.memBudget > 0 {
		if !admitted {
			return
		}
		actual := cube.MemoryFootprint()
		if actual > cc.memBudget {
			cc.admitRefusals.Inc()
			return
		}
		cc.evictForLocked(actual)
	}
	cc.insertLocked(key, cube, sorted)
}

// evictForLocked evicts in evictLargestLocked's victim order (the same
// as Trim's) until `need` more bytes fit under the memory budget,
// counting each victim as an admission eviction. Callers hold cc.mu.
func (cc *CubeCache) evictForLocked(need int64) {
	if cc.memBudget > 0 {
		cc.evictLargestLocked(cc.memBudget-need, cc.admitEvictions)
	}
}
