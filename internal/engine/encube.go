// The block cube kernel: the engine's one cube build. It aggregates over
// an EncodedRelation view of the relation — the compressed view
// (rel.Encoded) or the raw-alias view (rel.RawView) — block by block:
// group ids come from the groupIndex over blocks of unpacked dictionary
// codes (no per-row key slice, no per-row indexer call in the uint64
// regimes), and measures accumulate from encoded blocks, exactly-integer
// columns entirely in int64.
//
// The kernel keeps the fixed shard width (buildShardRows), first-occurrence
// group order, in-order shard merge, and SQL NULL semantics for NaN, so its
// output is bit-identical over either view and at every thread count; see
// docs/PERFORMANCE.md ("Determinism discipline") for the argument.
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

// encBlock is the number of rows unpacked per kernel block. The scratch
// working set (codes + cells + gids + one value buffer) stays around 36 KiB
// per worker — well inside L1/L2 — and is reused across every block and
// shard a worker scans.
const encBlock = 1024

// maxEncCapHint bounds the preallocation of group-indexed arrays. Group
// counts above the hint fall back to append growth, which only costs when
// a relation has more distinct groups than this.
const maxEncCapHint = 1 << 16

// encMeasKind classifies how the kernel accumulates one measure.
type encMeasKind uint8

const (
	// encMeasRaw: the float64 slice shared with the relation; accumulate
	// value by value in row order.
	encMeasRaw encMeasKind = iota
	// encMeasDecode: an integer encoding whose sums are not provably
	// exact; decode blocks to float64 and accumulate like encMeasRaw.
	encMeasDecode
	// encMeasConst: one shared bit pattern for every row.
	encMeasConst
	// encMeasIntExact: an integer encoding with SumExact; accumulate
	// count/delta-sum/delta-min/delta-max in int64 and convert once at
	// the end (bit-identical by the exact-integer argument).
	encMeasIntExact
)

// encPlan is the per-measure kernel plan of one encoded build.
type encPlan struct {
	kind     encMeasKind
	vals     []float64        // encMeasRaw: shared with the relation
	col      table.MeasColumn // encMeasDecode
	im       table.IntMeas    // encMeasIntExact
	base     int64            // encMeasIntExact
	constV   float64          // encMeasConst
	constNaN bool             // encMeasConst
	off      int              // offset of this measure's line slot (fstats or istats)
}

// encLayout fixes the packed statistics layout of one build: float-
// accumulated measures share fstats lines of width fw, int-exact measures
// share istats lines of width iw.
type encLayout struct {
	plans []encPlan
	fw    int       // floats per group line: 3 * (# float-accumulated measures)
	iw    int       // uint64s per group line: 3 * (# int-exact measures)
	finit []float64 // one empty float line: sum=0, min=NaN, max=NaN
	iinit []uint64  // one empty int line: sum=0, min=^0, max=0
}

func planMeasures(rel *table.Relation, enc *table.EncodedRelation) *encLayout {
	l := &encLayout{plans: make([]encPlan, rel.NumMeasures())}
	for m := range l.plans {
		switch c := enc.Meas(m).(type) {
		case table.ConstMeas:
			v := math.Float64frombits(c.ConstBits())
			l.plans[m] = encPlan{kind: encMeasConst, constV: v, constNaN: math.IsNaN(v), off: l.fw}
			l.fw += 3
		case table.IntMeas:
			if c.SumExact() {
				l.plans[m] = encPlan{kind: encMeasIntExact, im: c, base: c.Base(), off: l.iw}
				l.iw += 3
			} else {
				l.plans[m] = encPlan{kind: encMeasDecode, col: c, off: l.fw}
				l.fw += 3
			}
		default:
			l.plans[m] = encPlan{kind: encMeasRaw, vals: rel.MeasCol(m), off: l.fw}
			l.fw += 3
		}
	}
	l.finit = make([]float64, l.fw)
	for j := 0; j < l.fw; j += 3 {
		l.finit[j+1] = math.NaN()
		l.finit[j+2] = math.NaN()
	}
	l.iinit = make([]uint64, l.iw)
	for j := 0; j < l.iw; j += 3 {
		l.iinit[j+1] = ^uint64(0)
	}
	return l
}

// encScratch is one worker's reusable block buffers.
type encScratch struct {
	codes [][]int32 // per key position
	cells []uint64
	gids  []int32
	dbuf  []uint64  // deltas, int-exact measures only
	vbuf  []float64 // decoded values, decode measures only
}

func newEncScratch(stride int, l *encLayout) *encScratch {
	sc := &encScratch{
		codes: make([][]int32, stride),
		cells: make([]uint64, encBlock),
		gids:  make([]int32, encBlock),
	}
	for k := range sc.codes {
		sc.codes[k] = make([]int32, encBlock)
	}
	for _, p := range l.plans {
		if p.kind == encMeasIntExact && sc.dbuf == nil {
			sc.dbuf = make([]uint64, encBlock)
		}
		if p.kind == encMeasDecode && sc.vbuf == nil {
			sc.vbuf = make([]float64, encBlock)
		}
	}
	return sc
}

// encShard is a shard's private partial aggregate with packed per-group
// statistics lines. Arrays are preallocated at the group-count upper
// bound, so hot-path appends never reallocate for typical shapes.
type encShard struct {
	ix     *groupIndex
	counts []int64
	fstats []float64 // group g: fstats[g*fw : (g+1)*fw]
	istats []uint64  // group g: istats[g*iw : (g+1)*iw]
	l      *encLayout
	rows   int
}

func newEncShard(b *encBuilder, capHint int) *encShard {
	return &encShard{
		ix:     newGroupIndex(b.ks, len(b.cats), capHint, maxDenseCells),
		counts: make([]int64, 0, capHint),
		fstats: make([]float64, 0, capHint*b.l.fw),
		istats: make([]uint64, 0, capHint*b.l.iw),
		l:      b.l,
	}
}

// reset clears the accumulator for reuse on the next shard (serial build).
func (s *encShard) reset() {
	s.ix.reset()
	s.counts = s.counts[:0]
	s.fstats = s.fstats[:0]
	s.istats = s.istats[:0]
	s.rows = 0
}

// scan aggregates rows [lo, hi) into the shard, block by block, in row
// order.
func (s *encShard) scan(b *encBuilder, sc *encScratch, lo, hi int) {
	for blo := lo; blo < hi; blo += encBlock {
		s.scanBlock(b, sc, blo, min(blo+encBlock, hi))
	}
	s.rows += hi - lo
}

func (s *encShard) scanBlock(b *encBuilder, sc *encScratch, blo, bhi int) {
	bn := bhi - blo
	for k, c := range b.cats {
		c.UnpackCodes(sc.codes[k][:bn], blo, bhi)
	}
	gids := sc.gids[:bn]
	s.ix.assign(sc.codes, sc.cells, gids)
	for len(s.counts) < int(s.ix.n) {
		s.counts = append(s.counts, 0)
		s.fstats = append(s.fstats, s.l.finit...)
		s.istats = append(s.istats, s.l.iinit...)
	}

	counts := s.counts
	for _, g := range gids {
		counts[g]++
	}

	for m := range s.l.plans {
		p := &s.l.plans[m]
		switch p.kind {
		case encMeasRaw:
			accumFloatBlock(s.fstats, s.l.fw, p.off, p.vals[blo:bhi], gids)
		case encMeasDecode:
			p.col.UnpackValues(sc.vbuf[:bn], blo, bhi)
			accumFloatBlock(s.fstats, s.l.fw, p.off, sc.vbuf[:bn], gids)
		case encMeasConst:
			if p.constNaN {
				continue // NaN rows are counted but never aggregated
			}
			accumConstBlock(s.fstats, s.l.fw, p.off, p.constV, gids)
		case encMeasIntExact:
			p.im.UnpackDeltas(sc.dbuf[:bn], blo, bhi)
			accumDeltaBlock(s.istats, s.l.iw, p.off, sc.dbuf[:bn], gids)
		}
	}
}

// accumFloatBlock accumulates one block of float values in row order,
// skipping NaN. Each group's [sum,min,max] slot is contiguous, so a row
// touches one line.
func accumFloatBlock(stats []float64, fw, off int, vals []float64, gids []int32) {
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

func accumConstBlock(stats []float64, fw, off int, v float64, gids []int32) {
	for _, g := range gids {
		p := int(g)*fw + off
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

func accumDeltaBlock(stats []uint64, iw, off int, deltas []uint64, gids []int32) {
	for i, d := range deltas {
		p := int(gids[i])*iw + off
		st := stats[p : p+3 : p+3]
		st[0] += d // delta sum in wrapping uint64 ≡ int64
		if d < st[1] {
			st[1] = d
		}
		if d > st[2] {
			st[2] = d
		}
	}
}

// toCube materialises a single-shard build: the packed statistics unpack
// into the Cube's per-statistic arrays bit-for-bit.
func (s *encShard) toCube(rel *table.Relation, sorted []int) *Cube {
	n := int(s.ix.n)
	l := s.l
	sums := make([][]float64, len(l.plans))
	mins := make([][]float64, len(l.plans))
	maxs := make([][]float64, len(l.plans))
	for m := range l.plans {
		p := &l.plans[m]
		sm := make([]float64, n)
		mn := make([]float64, n)
		mx := make([]float64, n)
		if p.kind == encMeasIntExact {
			base := p.base
			for g := 0; g < n; g++ {
				st := s.istats[g*l.iw+p.off:]
				sm[g] = float64(base*s.counts[g] + int64(st[0]))
				mn[g] = float64(base + int64(st[1]))
				mx[g] = float64(base + int64(st[2]))
			}
		} else {
			for g := 0; g < n; g++ {
				st := s.fstats[g*l.fw+p.off:]
				sm[g] = st[0]
				mn[g] = st[1]
				mx[g] = st[2]
			}
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

// encGlobal is the merge target of a multi-shard build. Statistics live in
// separate per-statistic arrays — exactly the Cube's own layout, so toCube
// hands them over without copying. Arrays are slot-dense: fs[j] is the sum
// array of the j-th float-accumulated measure (slot j covers line offset
// 3j of the shard's fstats), is[j] of the j-th int-exact measure — the
// merge loops run over exactly the slots that exist, branch-free.
type encGlobal struct {
	ix           *groupIndex
	counts       []int64
	fs, fmn, fmx [][]float64
	is           [][]int64
	imn, imx     [][]uint64 // delta domain (monotone in the value)
	l            *encLayout
	rows         int
	ids          []int32 // merge scratch: shard group → global id
}

func newEncGlobal(b *encBuilder, capHint int) *encGlobal {
	l := b.l
	g := &encGlobal{
		ix:     newGroupIndex(b.ks, len(b.cats), capHint, maxDenseCells),
		counts: make([]int64, 0, capHint),
		l:      l,
	}
	nf, ni := l.fw/3, l.iw/3
	g.fs = make([][]float64, nf)
	g.fmn = make([][]float64, nf)
	g.fmx = make([][]float64, nf)
	for j := range g.fs {
		g.fs[j] = make([]float64, 0, capHint)
		g.fmn[j] = make([]float64, 0, capHint)
		g.fmx[j] = make([]float64, 0, capHint)
	}
	g.is = make([][]int64, ni)
	g.imn = make([][]uint64, ni)
	g.imx = make([][]uint64, ni)
	for j := range g.is {
		g.is[j] = make([]int64, 0, capHint)
		g.imn[j] = make([]uint64, 0, capHint)
		g.imx[j] = make([]uint64, 0, capHint)
	}
	return g
}

// merge folds a shard partial into the global accumulator. Shards must be
// merged in ascending shard order: each group's sum then accumulates the
// shard partials left to right, which is what makes the result independent
// of the number of workers. A first-seen group adopts the shard's
// statistics wholesale, which is bit-identical to merging into the empty
// statistics: min/max start NaN, and a shard sum is never -0.0 (it starts
// from +0.0, and IEEE addition from +0.0 cannot produce -0.0), so copying
// it equals adding it to +0.0.
func (a *encGlobal) merge(s *encShard) {
	l := a.l
	fresh := a.ix.n
	a.ids = a.ix.mapFrom(s.ix, a.ids)
	for sg, g := range a.ids {
		if g >= fresh {
			a.adopt(s, sg)
			continue
		}
		sf := s.fstats[sg*l.fw : (sg+1)*l.fw]
		a.counts[g] += s.counts[sg]
		for j := range a.fs {
			o := 3 * j
			a.fs[j][g] += sf[o]
			foldMin(&a.fmn[j][g], sf[o+1])
			foldMax(&a.fmx[j][g], sf[o+2])
		}
		if l.iw == 0 {
			continue
		}
		si := s.istats[sg*l.iw : (sg+1)*l.iw]
		for j := range a.is {
			o := 3 * j
			a.is[j][g] += int64(si[o])
			if d := si[o+1]; d < a.imn[j][g] {
				a.imn[j][g] = d
			}
			if d := si[o+2]; d > a.imx[j][g] {
				a.imx[j][g] = d
			}
		}
	}
	a.rows += s.rows
}

// adopt appends shard group sg's statistics as the newest global group.
func (a *encGlobal) adopt(s *encShard, sg int) {
	l := a.l
	a.counts = append(a.counts, s.counts[sg])
	sf := s.fstats[sg*l.fw:]
	for j := range a.fs {
		o := 3 * j
		a.fs[j] = append(a.fs[j], sf[o])
		a.fmn[j] = append(a.fmn[j], sf[o+1])
		a.fmx[j] = append(a.fmx[j], sf[o+2])
	}
	if l.iw > 0 {
		si := s.istats[sg*l.iw:]
		for j := range a.is {
			o := 3 * j
			a.is[j] = append(a.is[j], int64(si[o]))
			a.imn[j] = append(a.imn[j], si[o+1])
			a.imx[j] = append(a.imx[j], si[o+2])
		}
	}
}

// toCube finalises the global accumulator. Float-accumulated measures hand
// their arrays over directly; int-exact measures materialise sum/min/max
// from the integer state (exact, hence bit-identical to float
// accumulation).
func (a *encGlobal) toCube(rel *table.Relation, sorted []int) *Cube {
	n := int(a.ix.n)
	nm := len(a.l.plans)
	sums := make([][]float64, nm)
	mins := make([][]float64, nm)
	maxs := make([][]float64, nm)
	for m := range a.l.plans {
		p := &a.l.plans[m]
		j := p.off / 3
		if p.kind != encMeasIntExact {
			sums[m], mins[m], maxs[m] = a.fs[j], a.fmn[j], a.fmx[j]
			continue
		}
		sm := make([]float64, n)
		mn := make([]float64, n)
		mx := make([]float64, n)
		base := p.base
		is, imn, imx := a.is[j], a.imn[j], a.imx[j]
		for g := 0; g < n; g++ {
			sm[g] = float64(base*a.counts[g] + is[g])
			mn[g] = float64(base + int64(imn[g]))
			mx[g] = float64(base + int64(imx[g]))
		}
		sums[m], mins[m], maxs[m] = sm, mn, mx
	}
	return &Cube{
		rel: rel, attrs: sorted, stride: len(sorted),
		keyData: a.ix.keys, counts: a.counts,
		sums: sums, mins: mins, maxs: maxs,
		SourceRows: a.rows,
	}
}

// encBuilder carries the immutable inputs of one build.
type encBuilder struct {
	cats []table.CatColumn
	l    *encLayout
	ks   keySpace
}

// buildCubeView runs the kernel over view — rel.Encoded() or
// rel.RawView() — for the sorted attribute set whose key space is ks:
// fixed-width shards, the EngineCubeShard fault site and a ctx poll before
// every shard, and an in-order merge.
func buildCubeView(ctx context.Context, rel *table.Relation, view *table.EncodedRelation, sorted []int, ks keySpace, threads int) (*Cube, error) {
	b := &encBuilder{
		cats: make([]table.CatColumn, len(sorted)),
		l:    planMeasures(rel, view),
		ks:   ks,
	}
	for k, at := range sorted {
		b.cats[k] = view.Cat(at)
	}

	sp := obs.StartSpan(ctx, "engine/cube/build")
	defer sp.End()

	n := rel.NumRows()
	numShards := (n + buildShardRows - 1) / buildShardRows
	shardRows := func(s int) (lo, hi int) {
		lo = s * buildShardRows
		return lo, min(lo+buildShardRows, n)
	}
	scanShard := func(ctx context.Context, s int, acc *encShard, sc *encScratch) {
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
		acc := newEncShard(b, ks.capHint(n))
		acc.scan(b, newEncScratch(len(sorted), b.l), 0, n)
		return acc.toCube(rel, sorted), nil
	}

	global := newEncGlobal(b, ks.capHint(n))
	if threads > numShards {
		threads = numShards
	}
	if threads <= 1 {
		// Serial: one shard accumulator, reset and reused across shards,
		// merged into the global accumulator after each shard — the same
		// shard-order accumulation as batching the merges, with a fraction
		// of the allocations.
		sc := newEncScratch(len(sorted), b.l)
		shard := newEncShard(b, ks.capHint(buildShardRows))
		for s := 0; s < numShards; s++ {
			faultinject.Fire(faultinject.EngineCubeShard)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			shard.reset()
			scanShard(ctx, s, shard, sc)
			global.merge(shard)
		}
		return global.toCube(rel, sorted), nil
	}

	shards := make([]*encShard, numShards)
	done := make(chan struct{}, threads)
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			wctx := obs.ForkTrack(ctx, "cube-shard")
			sc := newEncScratch(len(sorted), b.l)
			for s := w; s < numShards; s += threads {
				faultinject.Fire(faultinject.EngineCubeShard)
				if wctx.Err() != nil {
					return
				}
				lo, hi := shardRows(s)
				acc := newEncShard(b, ks.capHint(hi-lo))
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
		global.merge(s)
	}
	return global.toCube(rel, sorted), nil
}
