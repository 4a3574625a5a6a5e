// The block cube kernel: the engine's one cube build. It aggregates the
// relation's own columns block by block, copying nothing: group ids come
// from the groupIndex over each block of dictionary codes, re-sliced from
// rel.CatCol (no per-row key slice, no per-row indexer call in the uint64
// regimes), and every measure accumulates from its block of rel.MeasCol
// in row order.
//
// The kernel keeps the fixed shard width (buildShardRows), first-occurrence
// group order, in-order shard merge, and SQL NULL semantics for NaN, so its
// output is bit-identical at every thread count; see docs/PERFORMANCE.md
// ("Determinism discipline") for the argument.
//
// Memory layout: shard accumulators pack each group's statistics into one
// contiguous line ([sum,min,max] per measure), so the random-access writes
// of the scan touch one cache line per group instead of one per statistic.
// The global merge target keeps separate per-statistic arrays, which are
// handed to the Cube without copying.
package engine

import (
	"context"
	"math"

	"comparenb/internal/faultinject"
	"comparenb/internal/obs"
	"comparenb/internal/table"
)

// blockRows is the number of rows the kernel groups per block. The scratch
// working set (cells + gids) stays around 12 KiB per worker and is reused
// across every block and shard a worker scans.
const blockRows = 1024

// maxCapHint bounds the preallocation of group-indexed arrays. Group
// counts above the hint fall back to append growth, which only costs when
// a relation has more distinct groups than this.
const maxCapHint = 1 << 16

// cubeBuild carries the immutable inputs of one build.
type cubeBuild struct {
	cats  [][]int32   // key columns, in sorted attribute order
	meas  [][]float64 // measure columns
	ks    keySpace
	fw    int       // floats per group line: 3 per measure
	finit []float64 // one empty line: sum=0, min=NaN, max=NaN per measure
}

// blockScratch is one worker's reusable block state.
type blockScratch struct {
	codes [][]int32 // per key position: the block's codes, re-sliced
	cells []uint64
	gids  []int32
}

func newBlockScratch(stride int) *blockScratch {
	return &blockScratch{
		codes: make([][]int32, stride),
		cells: make([]uint64, blockRows),
		gids:  make([]int32, blockRows),
	}
}

// shardAcc is a shard's private partial aggregate with packed per-group
// statistics lines. Arrays are preallocated at the group-count upper
// bound, so hot-path appends never reallocate for typical shapes.
type shardAcc struct {
	ix     *groupIndex
	counts []int64
	stats  []float64 // group g: stats[g*fw : (g+1)*fw]
	rows   int
}

func newShardAcc(b *cubeBuild, capHint int) *shardAcc {
	return &shardAcc{
		ix:     newGroupIndex(b.ks, len(b.cats), capHint, maxDenseCells),
		counts: make([]int64, 0, capHint),
		stats:  make([]float64, 0, capHint*b.fw),
	}
}

// reset clears the accumulator for reuse on the next shard (serial build).
func (s *shardAcc) reset() {
	s.ix.reset()
	s.counts = s.counts[:0]
	s.stats = s.stats[:0]
	s.rows = 0
}

// scan aggregates rows [lo, hi) into the shard, block by block, in row
// order.
func (s *shardAcc) scan(b *cubeBuild, sc *blockScratch, lo, hi int) {
	for blo := lo; blo < hi; blo += blockRows {
		s.scanBlock(b, sc, blo, min(blo+blockRows, hi))
	}
	s.rows += hi - lo
}

func (s *shardAcc) scanBlock(b *cubeBuild, sc *blockScratch, blo, bhi int) {
	for k, col := range b.cats {
		sc.codes[k] = col[blo:bhi]
	}
	gids := sc.gids[:bhi-blo]
	s.ix.assign(sc.codes, sc.cells, gids)
	for len(s.counts) < int(s.ix.n) {
		s.counts = append(s.counts, 0)
		s.stats = append(s.stats, b.finit...)
	}

	counts := s.counts
	for _, g := range gids {
		counts[g]++
	}
	for m, col := range b.meas {
		accumBlock(s.stats, b.fw, 3*m, col[blo:bhi], gids)
	}
}

// accumBlock accumulates one block of a measure in row order, skipping
// NaN. Each group's [sum,min,max] slot is contiguous, so a row touches one
// line.
func accumBlock(stats []float64, fw, off int, vals []float64, gids []int32) {
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		p := int(gids[i])*fw + off
		st := stats[p : p+3 : p+3]
		st[0] += v
		if math.IsNaN(st[1]) || v < st[1] {
			st[1] = v
		}
		if math.IsNaN(st[2]) || v > st[2] {
			st[2] = v
		}
	}
}

// toCube materialises a single-shard build: the packed statistics unpack
// into the Cube's per-statistic arrays bit-for-bit.
func (s *shardAcc) toCube(rel *table.Relation, b *cubeBuild, sorted []int) *Cube {
	n := int(s.ix.n)
	nm := len(b.meas)
	sums := make([][]float64, nm)
	mins := make([][]float64, nm)
	maxs := make([][]float64, nm)
	for m := range b.meas {
		sm := make([]float64, n)
		mn := make([]float64, n)
		mx := make([]float64, n)
		for g := 0; g < n; g++ {
			st := s.stats[g*b.fw+3*m:]
			sm[g], mn[g], mx[g] = st[0], st[1], st[2]
		}
		sums[m], mins[m], maxs[m] = sm, mn, mx
	}
	return &Cube{
		rel: rel, attrs: sorted, stride: len(sorted),
		keyData: s.ix.keys, counts: s.counts,
		sums: sums, mins: mins, maxs: maxs,
		SourceRows: s.rows,
	}
}

// globalAcc is the merge target of a multi-shard build. Statistics live in
// separate per-measure arrays — exactly the Cube's own layout, so toCube
// hands them over without copying.
type globalAcc struct {
	ix               *groupIndex
	counts           []int64
	sums, mins, maxs [][]float64
	rows             int
	ids              []int32 // merge scratch: shard group → global id
}

func newGlobalAcc(b *cubeBuild, capHint int) *globalAcc {
	nm := len(b.meas)
	a := &globalAcc{
		ix:     newGroupIndex(b.ks, len(b.cats), capHint, maxDenseCells),
		counts: make([]int64, 0, capHint),
		sums:   make([][]float64, nm),
		mins:   make([][]float64, nm),
		maxs:   make([][]float64, nm),
	}
	for m := 0; m < nm; m++ {
		a.sums[m] = make([]float64, 0, capHint)
		a.mins[m] = make([]float64, 0, capHint)
		a.maxs[m] = make([]float64, 0, capHint)
	}
	return a
}

// merge folds a shard partial into the global accumulator. Shards must be
// merged in ascending shard order: each group's sum then accumulates the
// shard partials left to right, which is what makes the result independent
// of the number of workers. A first-seen group adopts the shard's
// statistics wholesale, which is bit-identical to merging into the empty
// statistics: min/max start NaN, and a shard sum is never -0.0 (it starts
// from +0.0, and IEEE addition from +0.0 cannot produce -0.0), so copying
// it equals adding it to +0.0. New groups arrive in ascending id order, so
// adopting is an append.
func (a *globalAcc) merge(b *cubeBuild, s *shardAcc) {
	fresh := a.ix.n
	a.ids = a.ix.mapFrom(s.ix, a.ids)
	for sg, g := range a.ids {
		line := s.stats[sg*b.fw : (sg+1)*b.fw]
		if g >= fresh {
			a.counts = append(a.counts, s.counts[sg])
			for m := range a.sums {
				a.sums[m] = append(a.sums[m], line[3*m])
				a.mins[m] = append(a.mins[m], line[3*m+1])
				a.maxs[m] = append(a.maxs[m], line[3*m+2])
			}
			continue
		}
		a.counts[g] += s.counts[sg]
		for m := range a.sums {
			a.sums[m][g] += line[3*m]
			foldMin(&a.mins[m][g], line[3*m+1])
			foldMax(&a.maxs[m][g], line[3*m+2])
		}
	}
	a.rows += s.rows
}

// toCube finalises the global accumulator, handing its arrays over.
func (a *globalAcc) toCube(rel *table.Relation, sorted []int) *Cube {
	return &Cube{
		rel: rel, attrs: sorted, stride: len(sorted),
		keyData: a.ix.keys, counts: a.counts,
		sums: a.sums, mins: a.mins, maxs: a.maxs,
		SourceRows: a.rows,
	}
}

// buildCube runs the kernel for a sorted, duplicate-free attribute set:
// fixed-width shards, the EngineCubeShard fault site and a ctx poll before
// every shard, and an in-order merge.
func buildCube(ctx context.Context, rel *table.Relation, sorted []int, threads int) (*Cube, error) {
	b := &cubeBuild{
		cats:  make([][]int32, len(sorted)),
		meas:  make([][]float64, rel.NumMeasures()),
		ks:    newKeySpace(rel, sorted),
		fw:    3 * rel.NumMeasures(),
		finit: make([]float64, 3*rel.NumMeasures()),
	}
	for k, at := range sorted {
		b.cats[k] = rel.CatCol(at)
	}
	for m := range b.meas {
		b.meas[m] = rel.MeasCol(m)
		b.finit[3*m+1] = math.NaN()
		b.finit[3*m+2] = math.NaN()
	}

	sp := obs.StartSpan(ctx, "engine/cube/build")
	defer sp.End()

	n := rel.NumRows()
	numShards := (n + buildShardRows - 1) / buildShardRows
	shardRows := func(s int) (lo, hi int) {
		lo = s * buildShardRows
		return lo, min(lo+buildShardRows, n)
	}
	scanShard := func(ctx context.Context, s int, acc *shardAcc, sc *blockScratch) {
		ssp := obs.StartSpan(ctx, "engine/cube/shard")
		defer ssp.End()
		lo, hi := shardRows(s)
		acc.scan(b, sc, lo, hi)
	}

	if numShards <= 1 {
		faultinject.Fire(faultinject.EngineCubeShard)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc := newShardAcc(b, b.ks.capHint(n))
		acc.scan(b, newBlockScratch(len(sorted)), 0, n)
		return acc.toCube(rel, b, sorted), nil
	}

	global := newGlobalAcc(b, b.ks.capHint(n))
	if threads > numShards {
		threads = numShards
	}
	if threads <= 1 {
		// Serial: one shard accumulator, reset and reused across shards,
		// merged into the global accumulator after each shard — the same
		// shard-order accumulation as batching the merges, with a fraction
		// of the allocations.
		sc := newBlockScratch(len(sorted))
		shard := newShardAcc(b, b.ks.capHint(buildShardRows))
		for s := 0; s < numShards; s++ {
			faultinject.Fire(faultinject.EngineCubeShard)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			shard.reset()
			scanShard(ctx, s, shard, sc)
			global.merge(b, shard)
		}
		return global.toCube(rel, sorted), nil
	}

	shards := make([]*shardAcc, numShards)
	done := make(chan struct{}, threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			wctx := obs.ForkTrack(ctx, "cube-shard")
			sc := newBlockScratch(len(sorted))
			for s := w; s < numShards; s += threads {
				faultinject.Fire(faultinject.EngineCubeShard)
				if wctx.Err() != nil {
					return
				}
				lo, hi := shardRows(s)
				acc := newShardAcc(b, b.ks.capHint(hi-lo))
				scanShard(wctx, s, acc, sc)
				shards[s] = acc
			}
		}(w)
	}
	for w := 0; w < threads; w++ {
		<-done
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, s := range shards {
		global.merge(b, s)
	}
	return global.toCube(rel, sorted), nil
}
