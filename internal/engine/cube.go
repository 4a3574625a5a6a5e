package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"comparenb/internal/table"
)

// Cube is a partial aggregate: the result of γ over a set of categorical
// attributes, carrying count/sum/min/max for every measure so that any Agg
// (and any roll-up to a subset of the attributes — the trick behind
// Algorithm 2's group-by merging) can be answered from it without touching
// the base relation again.
//
// Group keys live in one flat backing array (stride = number of attributes)
// instead of a slice per group: building a cube allocates O(1) key slices
// regardless of the group count, and GroupKey is a re-slice, not a lookup.
type Cube struct {
	rel    *table.Relation
	attrs  []int // sorted categorical attribute indexes
	stride int   // == len(attrs)

	keyData []int32 // keyData[g*stride+k] = code of attrs[k] in group g
	counts  []int64
	sums    [][]float64 // sums[m][g]
	mins    [][]float64
	maxs    [][]float64

	// SourceRows is θ_q of §4.2: the number of tuples aggregated.
	SourceRows int
}

// Attrs returns a copy of the (sorted) categorical attribute indexes the
// cube groups by.
func (c *Cube) Attrs() []int { return append([]int(nil), c.attrs...) }

// NumGroups returns γ_q: the number of groups.
func (c *Cube) NumGroups() int { return len(c.counts) }

// Relation returns the relation the cube was built from.
func (c *Cube) Relation() *table.Relation { return c.rel }

// GroupKey returns the attribute codes identifying group g, aligned with
// Attrs(). The slice is owned by the cube (it aliases the flat backing
// array and is capped, so appends cannot clobber a neighbouring group).
func (c *Cube) GroupKey(g int) []int32 {
	lo, hi := g*c.stride, (g+1)*c.stride
	return c.keyData[lo:hi:hi]
}

// Count returns the tuple count of group g.
func (c *Cube) Count(g int) int64 { return c.counts[g] }

// Value returns agg(measure m) for group g. Avg of an empty group and
// Min/Max of an all-NaN group are NaN.
func (c *Cube) Value(g, m int, agg Agg) float64 {
	switch agg {
	case Sum:
		return c.sums[m][g]
	case Avg:
		if c.counts[g] == 0 {
			return math.NaN()
		}
		return c.sums[m][g] / float64(c.counts[g])
	case Min:
		return c.mins[m][g]
	case Max:
		return c.maxs[m][g]
	case Count:
		return float64(c.counts[g])
	default:
		//nolint:nopanic // exhaustive switch over the Agg enum; a new value is a programming error every test hits immediately
		panic(fmt.Sprintf("engine: bad agg %d", int(agg)))
	}
}

// MemoryFootprint estimates the in-memory size of the cube in bytes. This
// is the weight used by Algorithm 2's weighted set cover and the unit the
// CubeCache budget is expressed in.
func (c *Cube) MemoryFootprint() int64 {
	return int64(c.NumGroups()) * groupBytes(c.rel, len(c.attrs))
}

// groupBytes is the footprint of one group of a cube over nAttrs
// attributes of rel: a 4-byte code per attribute, an 8-byte count, and a
// sum, min and max per measure.
func groupBytes(rel *table.Relation, nAttrs int) int64 {
	return int64(nAttrs)*4 + 8 + int64(rel.NumMeasures())*3*8
}

// buildShardRows is the fixed shard width of the sharded cube build. It
// depends only on the relation size — never on the thread count — so the
// per-shard partial sums, and therefore the merged totals, are bit-identical
// no matter how many workers execute the shards (see docs/PERFORMANCE.md
// for the determinism argument).
const buildShardRows = 16384

// BuildCube aggregates the relation over the given categorical attributes
// (order-insensitive; the cube stores them sorted). NaN measure values are
// ignored by Sum/Min/Max but still counted, matching SQL aggregates over a
// table where the dirty cells were NULL.
//
// The build is sharded: the row range is cut into fixed-width shards
// (buildShardRows), up to `threads` workers aggregate them into private
// partials, and the partials merge in shard order. Shard boundaries depend
// only on the relation size and the merge order is fixed, so the cube is
// bit-identical for every thread count; threads <= 1 runs the same shards
// with zero goroutines. Workers poll ctx before each shard and the build
// returns ctx's error once cancelled; a started shard runs to completion,
// so no partial cube ever escapes.
func BuildCube(ctx context.Context, rel *table.Relation, attrs []int, threads int) (*Cube, error) {
	sorted := sortedAttrs(attrs)
	mustUniqueAttrs(sorted)
	return buildCube(ctx, rel, sorted, threads)
}

// maxDenseCells bounds the composite-code space for which the group index
// uses a dense table (one int32 per possible key) instead of a hash map.
// 1<<20 cells is a 4 MiB table.
const maxDenseCells = 1 << 20

// keySpace is the composite-key space of one group-by, fixed once per
// build from the active-domain sizes: mixed-radix multipliers that make
// every key a unique uint64 cell below `cells`, or radix == nil when the
// space overflows uint64 and keys compare as raw code bytes.
type keySpace struct {
	radix []uint64
	cells uint64
}

func newKeySpace(rel *table.Relation, sorted []int) keySpace {
	radix := make([]uint64, len(sorted))
	prod := uint64(1)
	for i, a := range sorted {
		radix[i] = prod
		d := uint64(rel.DomSize(a))
		if d == 0 {
			d = 1
		}
		if prod > (1<<63)/d {
			return keySpace{}
		}
		prod *= d
	}
	return keySpace{radix: radix, cells: prod}
}

// capHint bounds the group count of a group-by over `rows` rows by the
// size of the code space, capped at maxCapHint, for preallocation.
func (ks keySpace) capHint(rows int) int {
	h := min(rows, maxCapHint)
	if ks.radix != nil && ks.cells < uint64(h) {
		h = int(ks.cells)
	}
	return h
}

// groupIndex numbers the composite group keys of one group-by in
// first-occurrence order and keeps them, flat (key of group id at
// keys[id*stride:]). It is the one place the key regime lives, chosen once
// from the keySpace: a dense table over the mixed-radix cells when there
// are at most denseCells of them, a map over the cells when they fit
// uint64, and a map over the raw code bytes when they do not. Ids do not
// depend on the regime.
type groupIndex struct {
	stride int
	radix  []uint64         // nil in the byte-key regime
	dense  []int32          // cell → id+1, 0 = unseen
	m      map[uint64]int32 // cell → id
	ms     map[string]int32 // code bytes → id
	keys   []int32
	n      int32
	key    []int32 // scratch: one key
	kbytes []byte  // scratch: one key's code bytes
}

func newGroupIndex(ks keySpace, stride, capHint int, denseCells uint64) *groupIndex {
	ix := &groupIndex{
		stride: stride,
		radix:  ks.radix,
		keys:   make([]int32, 0, capHint*stride),
		key:    make([]int32, stride),
	}
	switch {
	case ks.radix == nil:
		ix.ms = make(map[string]int32, capHint)
		ix.kbytes = make([]byte, 4*stride)
	case ks.cells <= denseCells:
		ix.dense = make([]int32, ks.cells)
	default:
		ix.m = make(map[uint64]int32, capHint)
	}
	return ix
}

// groupKey returns the key of group id, aliasing the index.
func (ix *groupIndex) groupKey(id int) []int32 {
	return ix.keys[id*ix.stride : (id+1)*ix.stride]
}

func (ix *groupIndex) cell(key []int32) uint64 {
	h := uint64(0)
	for k, code := range key {
		h += uint64(uint32(code)) * ix.radix[k]
	}
	return h
}

// lookupOrAdd returns the id of key, adding a copy of key as the next id
// when it is unseen.
func (ix *groupIndex) lookupOrAdd(key []int32) (id int32, isNew bool) {
	switch {
	case ix.dense != nil:
		cell := ix.cell(key)
		if id := ix.dense[cell]; id != 0 {
			return id - 1, false
		}
		return ix.addDense(cell, key) - 1, true
	case ix.m != nil:
		cell := ix.cell(key)
		if id, ok := ix.m[cell]; ok {
			return id, false
		}
		ix.m[cell] = ix.n
	default:
		b := ix.kbytes
		for k, code := range key {
			binary.LittleEndian.PutUint32(b[4*k:], uint32(code))
		}
		if id, ok := ix.ms[string(b)]; ok {
			return id, false
		}
		ix.ms[string(b)] = ix.n
	}
	ix.keys = append(ix.keys, key...)
	ix.n++
	return ix.n - 1, true
}

// addDense adds key, whose unseen cell is cell, in the dense regime and
// returns its id + 1 (the dense table's entry).
func (ix *groupIndex) addDense(cell uint64, key []int32) int32 {
	ix.keys = append(ix.keys, key...)
	ix.n++
	ix.dense[cell] = ix.n
	return ix.n
}

// assign sets gids[i] to the id of row i of a block whose key codes are
// codes[k][i], adding unseen keys in row order. With a mixed radix the
// block's cells are computed first, fused over the key positions (cells is
// scratch), so the dense regime costs one table load per row.
func (ix *groupIndex) assign(codes [][]int32, cells []uint64, gids []int32) {
	if ix.radix == nil {
		for i := range gids {
			gids[i], _ = ix.lookupOrAdd(ix.keyAt(codes, i))
		}
		return
	}
	cells = cells[:len(gids)]
	if len(codes) == 0 {
		clear(cells)
	}
	// The first key position assigns (no zeroing pass), the rest add.
	for k, ck := range codes {
		rk := ix.radix[k]
		ck = ck[:len(cells)]
		if k == 0 {
			for i := range cells {
				cells[i] = uint64(uint32(ck[i])) * rk
			}
			continue
		}
		for i := range cells {
			cells[i] += uint64(uint32(ck[i])) * rk
		}
	}
	if ix.dense != nil {
		for i, cell := range cells {
			id := ix.dense[cell]
			if id == 0 {
				id = ix.addDense(cell, ix.keyAt(codes, i))
			}
			gids[i] = id - 1
		}
		return
	}
	for i, cell := range cells {
		id, ok := ix.m[cell]
		if !ok {
			id, _ = ix.lookupOrAdd(ix.keyAt(codes, i))
		}
		gids[i] = id
	}
}

// mapFrom sets ids[sg] to the id here of src's group sg, adding src's
// unseen keys in src order, and returns ids. A group is new here iff its
// id is at least the n the index had before the call. The dense regime
// probes inline, as assign does.
func (ix *groupIndex) mapFrom(src *groupIndex, ids []int32) []int32 {
	ids = slices.Grow(ids[:0], int(src.n))
	for sg := 0; sg < int(src.n); sg++ {
		key := src.groupKey(sg)
		if ix.dense == nil {
			id, _ := ix.lookupOrAdd(key)
			ids = append(ids, id)
			continue
		}
		cell := ix.cell(key)
		id := ix.dense[cell]
		if id == 0 {
			id = ix.addDense(cell, key)
		}
		ids = append(ids, id-1)
	}
	return ids
}

// keyAt gathers row i's key from column-major codes into scratch.
func (ix *groupIndex) keyAt(codes [][]int32, i int) []int32 {
	for k := range ix.key {
		ix.key[k] = codes[k][i]
	}
	return ix.key
}

// reset forgets every key and keeps the allocations. The dense table is
// wiped through the stored keys, so the cost is O(groups), not O(cells).
func (ix *groupIndex) reset() {
	switch {
	case ix.dense != nil:
		for id := 0; id < int(ix.n); id++ {
			ix.dense[ix.cell(ix.groupKey(id))] = 0
		}
	case ix.m != nil:
		clear(ix.m)
	default:
		clear(ix.ms)
	}
	ix.keys = ix.keys[:0]
	ix.n = 0
}

// Rollup aggregates the cube down to a subset of its attributes. All stored
// statistics are distributive (count, sum, min, max), and Avg is derived as
// sum/count, so roll-up is exact. Rollup panics if attrs is not a subset of
// the cube's attributes.
func (c *Cube) Rollup(attrs []int) *Cube {
	sorted := sortedAttrs(attrs)
	pos := make([]int, len(sorted))
	for i, want := range sorted {
		pos[i] = mustAttrPos(c.attrs, want)
	}

	ks := newKeySpace(c.rel, sorted)
	ix := newGroupIndex(ks, len(sorted), ks.capHint(c.NumGroups()), maxDenseCells)
	nm := c.rel.NumMeasures()
	out := &Cube{
		rel: c.rel, attrs: sorted, stride: len(sorted),
		sums: make([][]float64, nm), mins: make([][]float64, nm), maxs: make([][]float64, nm),
		SourceRows: c.SourceRows,
	}
	key := make([]int32, len(sorted))
	for src := 0; src < c.NumGroups(); src++ {
		srcKey := c.GroupKey(src)
		for i, p := range pos {
			key[i] = srcKey[p]
		}
		g, isNew := ix.lookupOrAdd(key)
		if isNew {
			out.counts = append(out.counts, 0)
			for j := range out.sums {
				out.sums[j] = append(out.sums[j], 0)
				out.mins[j] = append(out.mins[j], math.NaN())
				out.maxs[j] = append(out.maxs[j], math.NaN())
			}
		}
		out.counts[g] += c.counts[src]
		for j := range out.sums {
			out.sums[j][g] += c.sums[j][src]
			foldMin(&out.mins[j][g], c.mins[j][src])
			foldMax(&out.maxs[j][g], c.maxs[j][src])
		}
	}
	out.keyData = ix.keys
	return out
}

// foldMin and foldMax merge a partial min/max v into *dst. NaN is the
// empty partial (a group with no non-NaN value), so it never wins.
func foldMin(dst *float64, v float64) {
	if !math.IsNaN(v) && (math.IsNaN(*dst) || v < *dst) {
		*dst = v
	}
}

func foldMax(dst *float64, v float64) {
	if !math.IsNaN(v) && (math.IsNaN(*dst) || v > *dst) {
		*dst = v
	}
}

// mustUniqueAttrs panics when a sorted group-by attribute set contains a
// duplicate. It is a guarded invariant helper (see the nopanic rule in
// internal/analysis): attribute sets reaching the cube builder come from
// cover.Pair values and candidate enumerations, which are duplicate-free
// by construction, so a duplicate here is a caller bug worth crashing on.
func mustUniqueAttrs(sorted []int) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			panic(fmt.Sprintf("engine: duplicate attribute %d in group-by set", sorted[i]))
		}
	}
}

// mustAttrPos returns the index of want within attrs, panicking when it is
// absent. Guarded invariant helper: Rollup's documented contract is that
// the target attributes are a subset of the cube's, and every call site
// derives them from the cube's own attribute set.
func mustAttrPos(attrs []int, want int) int {
	for k, have := range attrs {
		if have == want {
			return k
		}
	}
	panic(fmt.Sprintf("engine: Rollup attribute %d not in cube attrs %v", want, attrs))
}
