package engine

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"

	"comparenb/internal/obs"
	"comparenb/internal/table"
)

// CacheStats is a snapshot of CubeCache counters. Hits are exact-key
// matches, RollupHits answered a subset group-by by rolling up a cached
// superset cube, Misses fell through to a base-relation build, Evictions
// counts entries removed by Trim. Bytes/Entries describe current contents.
// AdmitEvictions and AdmitRefusals count memory-budget admission actions
// (see SetMemBudget); both stay zero — and absent from JSON — when no
// memory budget is armed, preserving report byte-identity.
type CacheStats struct {
	Hits           int64 `json:"hits"`
	RollupHits     int64 `json:"rollup_hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Bytes          int64 `json:"bytes"`
	Entries        int   `json:"entries"`
	AdmitEvictions int64 `json:"admit_evictions,omitempty"`
	AdmitRefusals  int64 `json:"admit_refusals,omitempty"`
}

// Delta returns the counter movement from base to s: the monotone
// counters (hits, rollups, misses, evictions, admission actions) become
// differences, while the instantaneous fields (Bytes, Entries) keep s's
// absolute values. A run sharing a long-lived cache
// (pipeline.Config.Cache) snapshots Stats before and Deltas after to
// report its own traffic; when the cache serves one run at a time the
// delta is exact, under concurrent runs it attributes interleaved
// traffic approximately (the cache-level totals stay exact and monotone).
func (s CacheStats) Delta(base CacheStats) CacheStats {
	s.Hits -= base.Hits
	s.RollupHits -= base.RollupHits
	s.Misses -= base.Misses
	s.Evictions -= base.Evictions
	s.AdmitEvictions -= base.AdmitEvictions
	s.AdmitRefusals -= base.AdmitRefusals
	return s
}

// cacheKey identifies a cube: the relation identity plus the canonical
// (sorted) attribute set.
type cacheKey struct {
	rel   *table.Relation
	attrs string
}

type cacheEntry struct {
	cube  *Cube
	attrs []int // sorted
	bytes int64
}

// CubeCache is a size-bounded, rollup-aware store of partial aggregates
// keyed by (relation, attribute set). It lets Algorithm 2's set cover, the
// hypothesis phase and the notebook's verification queries share cubes
// instead of rescanning the base relation: an exact key is returned as-is,
// and a subset group-by is answered by rolling up the cheapest cached
// superset (count/sum/min/max are distributive, so roll-up is exact).
//
// Concurrency and determinism: every method is safe for concurrent use.
// Without a memory budget, eviction only happens in Trim, never inside a
// lookup, build or Add. Pipelines call Trim at single-threaded phase
// boundaries; combined with a victim rule that is a pure function of the
// entry set (not of arrival order), the cache contents at every decision
// point are independent of goroutine scheduling, which is what keeps
// notebooks byte-identical across thread counts (see docs/PERFORMANCE.md).
// A memory budget (SetMemBudget) evicts at admission instead, mid-phase.
type CubeCache struct {
	mu        sync.Mutex
	budget    int64 // soft bytes bound, enforced only by Trim; <= 0 unbounded
	memBudget int64 // hard bytes bound, enforced at admission; <= 0 disarmed
	entries   map[cacheKey]*cacheEntry
	bytes     int64 // current footprint, guarded by mu
	nEntries  int   // len(entries), guarded by mu

	// Counters live in obs handles so the cache is its own single source
	// of truth for hit/rollup/miss/evict accounting: NewCubeCache starts
	// them standalone, Instrument rebinds them into a run's registry, and
	// both Stats() and the exported metrics read the same cells.
	hits           *obs.Counter
	rollupHits     *obs.Counter
	misses         *obs.Counter
	evictions      *obs.Counter
	admitEvictions *obs.Counter
	admitRefusals  *obs.Counter
}

// NewCubeCache returns a cache bounded to roughly `budget` bytes of cube
// footprint (MemoryFootprint units). budget <= 0 means unbounded.
func NewCubeCache(budget int64) *CubeCache {
	return &CubeCache{
		budget:         budget,
		entries:        make(map[cacheKey]*cacheEntry),
		hits:           obs.NewCounter(),
		rollupHits:     obs.NewCounter(),
		misses:         obs.NewCounter(),
		evictions:      obs.NewCounter(),
		admitEvictions: obs.NewCounter(),
		admitRefusals:  obs.NewCounter(),
	}
}

// Instrument rebinds the cache's counters to reg under the
// engine_cache_* names, making the registry the single source of truth
// for cache accounting. Call once, on a fresh cache, before any lookups;
// counts accumulated before Instrument are discarded with the standalone
// counters. A nil reg leaves the standalone counters in place.
func (cc *CubeCache) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.hits = reg.Counter("engine_cache_hits")
	cc.rollupHits = reg.Counter("engine_cache_rollup_hits")
	cc.misses = reg.Counter("engine_cache_misses")
	cc.evictions = reg.Counter("engine_cache_evictions")
	cc.admitEvictions = reg.Counter("engine_cache_admit_evictions")
	cc.admitRefusals = reg.Counter("engine_cache_admit_refusals")
}

// attrsKey canonicalises a sorted attribute set as a string map key.
func attrsKey(sorted []int) string {
	var sb strings.Builder
	for i, a := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(a))
	}
	return sb.String()
}

func sortedAttrs(attrs []int) []int {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	return sorted
}

// Get returns the cached cube for exactly this attribute set, or nil.
// An exact match counts as a hit; a miss is only counted by the *OrBuild
// variants, which know whether a build actually happened.
func (cc *CubeCache) Get(rel *table.Relation, attrs []int) *Cube {
	sorted := sortedAttrs(attrs)
	key := cacheKey{rel: rel, attrs: attrsKey(sorted)}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.entries[key]; ok {
		cc.hits.Inc()
		return e.cube
	}
	return nil
}

// GetOrBuild returns a cube over attrs, in order of preference: the exact
// cached cube, a roll-up of the cheapest cached strict superset, or a fresh
// BuildCube from the relation. The result is inserted into the cache. The
// superset choice — fewest groups, then fewest attributes, then smallest
// key string — is a deterministic function of the cache contents. Only a
// fresh build observes ctx: lookups and roll-ups are cheap and never
// interrupted. A cancelled build inserts nothing, so the cache never holds
// a partial cube.
func (cc *CubeCache) GetOrBuild(ctx context.Context, rel *table.Relation, attrs []int, threads int) (*Cube, error) {
	return cc.getOrBuild(ctx, rel, attrs, threads, true)
}

// BuildThrough is GetOrBuild without the roll-up: it returns the exact
// cached cube or builds one from the base relation. Algorithm 2 uses it for
// the base cubes of the chosen cover, whose bit-exact provenance must be
// "built from the relation" regardless of what else the cache holds.
func (cc *CubeCache) BuildThrough(ctx context.Context, rel *table.Relation, attrs []int, threads int) (*Cube, error) {
	return cc.getOrBuild(ctx, rel, attrs, threads, false)
}

func (cc *CubeCache) getOrBuild(ctx context.Context, rel *table.Relation, attrs []int, threads int, rollup bool) (*Cube, error) {
	sorted := sortedAttrs(attrs)
	key := cacheKey{rel: rel, attrs: attrsKey(sorted)}

	cc.mu.Lock()
	if e, ok := cc.entries[key]; ok {
		cc.hits.Inc()
		cc.mu.Unlock()
		return e.cube, nil
	}
	var super *Cube
	if rollup {
		super = cc.bestSupersetLocked(rel, sorted)
	}
	cc.mu.Unlock()

	admitted := cc.admitPrepare(rel, sorted)
	var cube *Cube
	if super != nil {
		sp := obs.StartSpan(ctx, "engine/cube/rollup")
		cube = super.Rollup(sorted)
		sp.End()
	} else {
		var err error
		if cube, err = BuildCube(ctx, rel, sorted, threads); err != nil {
			return nil, err
		}
	}

	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.entries[key]; ok {
		cc.hits.Inc()
		return e.cube, nil
	}
	if super != nil {
		cc.rollupHits.Inc()
	} else {
		cc.misses.Inc()
	}
	cc.admitInsertLocked(key, cube, sorted, admitted)
	return cube, nil
}

// Add inserts a cube built elsewhere. Without a memory budget it never
// evicts (see Trim); with one armed it goes through admission, which may
// evict entries to make room or refuse to cache the cube (see
// SetMemBudget).
func (cc *CubeCache) Add(cube *Cube) {
	sorted := sortedAttrs(cube.attrs)
	key := cacheKey{rel: cube.rel, attrs: attrsKey(sorted)}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.entries[key]; ok {
		return
	}
	cc.admitInsertLocked(key, cube, sorted, true)
}

func (cc *CubeCache) insertLocked(key cacheKey, cube *Cube, sorted []int) {
	e := &cacheEntry{cube: cube, attrs: sorted, bytes: cube.MemoryFootprint()}
	cc.entries[key] = e
	cc.bytes += e.bytes
	cc.nEntries = len(cc.entries)
}

// bestSupersetLocked picks the cached strict superset of sorted (same
// relation) that is cheapest to roll up: fewest groups, then fewest
// attributes, then smallest attribute-key string. Returns nil when none.
func (cc *CubeCache) bestSupersetLocked(rel *table.Relation, sorted []int) *Cube {
	var best *cacheEntry
	var bestKey string
	for key, e := range cc.entries {
		if key.rel != rel || len(e.attrs) <= len(sorted) || !isSubset(sorted, e.attrs) {
			continue
		}
		if best == nil ||
			e.cube.NumGroups() < best.cube.NumGroups() ||
			(e.cube.NumGroups() == best.cube.NumGroups() && (len(e.attrs) < len(best.attrs) ||
				(len(e.attrs) == len(best.attrs) && key.attrs < bestKey))) {
			best = e
			bestKey = key.attrs
		}
	}
	if best == nil {
		return nil
	}
	return best.cube
}

// isSubset reports whether every element of sub (sorted) occurs in sup
// (sorted).
func isSubset(sub, sup []int) bool {
	j := 0
	for _, want := range sub {
		for j < len(sup) && sup[j] < want {
			j++
		}
		if j >= len(sup) || sup[j] != want {
			return false
		}
		j++
	}
	return true
}

// Trim evicts entries until the total footprint fits the budget, in
// evictLargestLocked's victim order, so the surviving contents do not
// depend on the order entries were inserted in. Call it from a
// single-threaded phase boundary; it is the only method that removes
// entries.
func (cc *CubeCache) Trim() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.budget > 0 {
		cc.evictLargestLocked(cc.budget, cc.evictions)
	}
}

// evictLargestLocked removes entries largest-footprint-first, ties broken
// by key string, until the total footprint is at most limit, and bumps
// counter once per victim. The victim order is a pure function of the
// entry set. Callers hold cc.mu.
func (cc *CubeCache) evictLargestLocked(limit int64, counter *obs.Counter) {
	if cc.bytes <= limit {
		return
	}
	type victim struct {
		key   cacheKey
		bytes int64
	}
	// Collect keys, then sort: the iteration feeds a deterministic sort,
	// so map order cannot leak into which entries survive.
	var all []victim
	for key, e := range cc.entries {
		all = append(all, victim{key: key, bytes: e.bytes})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].bytes != all[j].bytes {
			return all[i].bytes > all[j].bytes
		}
		return all[i].key.attrs < all[j].key.attrs
	})
	for _, v := range all {
		if cc.bytes <= limit {
			break
		}
		delete(cc.entries, v.key)
		cc.bytes -= v.bytes
		counter.Inc()
	}
	cc.nEntries = len(cc.entries)
}

// DropRelation evicts every entry built over rel and returns how many
// entries were removed. It exists for long-lived caches whose relations
// come and go (a server session being deleted): entries keyed by a
// dropped relation can never be hit again — the key is the pointer — so
// removing them cannot change any other run's answers, only free the
// bytes. Removals count as evictions.
func (cc *CubeCache) DropRelation(rel *table.Relation) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	// Collect keys, then sort: the removed set is "every entry of rel"
	// either way, but deterministic order keeps the walk reviewable.
	var victims []cacheKey
	for key := range cc.entries {
		if key.rel == rel {
			victims = append(victims, key)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].attrs < victims[j].attrs })
	for _, key := range victims {
		cc.bytes -= cc.entries[key].bytes
		delete(cc.entries, key)
		cc.evictions.Inc()
	}
	cc.nEntries = len(cc.entries)
	return len(victims)
}

// Stats returns a snapshot of the counters.
func (cc *CubeCache) Stats() CacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CacheStats{
		Hits:           cc.hits.Value(),
		RollupHits:     cc.rollupHits.Value(),
		Misses:         cc.misses.Value(),
		Evictions:      cc.evictions.Value(),
		Bytes:          cc.bytes,
		Entries:        cc.nEntries,
		AdmitEvictions: cc.admitEvictions.Value(),
		AdmitRefusals:  cc.admitRefusals.Value(),
	}
}
