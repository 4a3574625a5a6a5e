package stats

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"comparenb/internal/faultinject"
	// Aliased: `obs` is the conventional name of the observed statistic in
	// this package, which would shadow the package.
	obspkg "comparenb/internal/obs"
)

// TestStat selects the permutation test statistic of Table 1.
type TestStat int

const (
	// MeanDiff is |μX − μY|, the statistic for mean-greater insights.
	MeanDiff TestStat = iota
	// VarDiff is |σ²X − σ²Y|, the statistic for variance-greater insights.
	VarDiff
	// MedianDiff is |median(X) − median(Y)|, the statistic for the
	// median-greater extension type (the paper's §7 future work: new
	// insight types need a statistic, a hypothesis query, and adapted
	// scoring — this is the statistic).
	MedianDiff
)

func (s TestStat) String() string {
	switch s {
	case MeanDiff:
		return "|mean(X)-mean(Y)|"
	case VarDiff:
		return "|var(X)-var(Y)|"
	case MedianDiff:
		return "|median(X)-median(Y)|"
	default:
		return "TestStat(?)"
	}
}

// permBlock is the resample-block width of the permutation streams: block
// b covers permutations [b*permBlock, (b+1)*permBlock) and is drawn from
// its own RNG stream seeded by mixSeed(seed, b). Because the block layout
// depends only on nperm, the permutations — and therefore every p-value
// computed from them — are bit-identical no matter how many workers draw
// and score the blocks.
const permBlock = 64

// PermTest is one two-sample permutation test: Pooled holds side X's
// values followed by side Y's (NaN cells filtered by the caller) and Stat
// is the statistic to compare.
type PermTest struct {
	Pooled []float64
	Stat   TestStat
}

// PermResult is the outcome of one PermTest: the observed statistic, the
// one-tailed p-value
//
//	P = (1 + #{permuted stat ≥ Obs}) / (1 + Perms)
//
// with the +1 smoothing that keeps P > 0, and Perms, the number of
// permutations evaluated (fewer than requested only when the early stop
// decided the test). When the statistic is undefined on the pool (an
// empty side) Obs is NaN, P is 1 and Perms is 0: nothing can be
// concluded.
type PermResult struct {
	Obs   float64
	P     float64
	Perms int
}

// PermTests runs every test against one shared stream of nperm label
// permutations of the nx + ny pooled rows. This is the paper's §5.1.1
// optimisation — "we use the same permutations to check all possible
// insights on different measures for a given attribute" — pushed into
// the inner loop: each permutation is drawn once, scored by every test
// still running, and dropped, so a worker holds O(nx+ny) scratch rather
// than the permutation set.
//
// Every statistic is symmetric in the two sides, so a permutation draws
// only the smaller side: nd = min(nx, ny) rows, labelled by a partial
// Fisher–Yates, against the n−nd rows left. The permuted statistic
// compares the drawn side with the rest, whichever of X and Y it has the
// size of; the observed one compares X with Y. For the mean and variance
// statistics the undrawn side is derived from pooled totals, so scoring
// costs O(nd), and the tests that share a Pooled slice share one pass
// per permutation.
//
// The stream is cut into blocks of PermBlock permutations, block b drawn
// from its own generator seeded by (seed, b); up to `threads` workers
// draw and score whole blocks. Exceedances are integer counts folded in
// block order, so every result is bit-identical at any thread count.
//
// alpha > 0 turns on early stopping: after each block, in block order, a
// test whose verdict relative to alpha is already certain up to the
// Hoeffding bound of earlyStopDecided stops, and its P is the estimate
// over the permutations evaluated so far. The stop point is a pure
// function of the inputs; blocks a parallel worker scored past it are
// discarded. With alpha = 0 every test evaluates all nperm permutations.
//
// Cancelling ctx aborts at the next block boundary with ctx's error and
// no results. The StatsPermBlock fault site fires before every block.
func PermTests(ctx context.Context, nx, ny, nperm int, seed int64, threads int, alpha float64, tests []PermTest) ([]PermResult, error) {
	nblocks := (nperm + permBlock - 1) / permBlock
	nd := min(nx, ny)
	r := &permRun{
		n: nx + ny, nd: nd, nperm: nperm, seed: seed, alpha: alpha,
		ranges: newRanges(nx+ny, nd),
		tests:  make([]testState, len(tests)),
		counts: make([]int, nblocks*len(tests)),
		scored: make([]bool, nblocks),
	}
	var scratch *permScratch
	for t, pt := range tests {
		if len(pt.Pooled) != nx+ny {
			panic("stats: pooled length does not match the permutation sides")
		}
		if pt.Stat == MedianDiff && scratch == nil {
			scratch = newPermScratch(nx + ny)
		}
		ts := &r.tests[t]
		ts.PermTest, ts.obs = pt, math.NaN()
		if nx == 0 || ny == 0 {
			continue
		}
		switch pt.Stat {
		case MeanDiff, VarDiff:
			ts.col = r.column(pt.Pooled, nx)
			c := &r.cols[ts.col]
			ts.obs = c.statistic(pt.Stat, nx, ny, c.sx, c.qx)
		case MedianDiff:
			ts.obs = medianStatistic(nx, pt.Pooled, nil, scratch)
		default:
			panic("stats: unknown test statistic")
		}
		if !math.IsNaN(ts.obs) && nperm > 0 {
			ts.open = true
			r.nopen++
		}
	}
	r.median = scratch != nil

	switch workers := min(threads, nblocks); {
	case r.nopen == 0: // nothing to score
	case workers <= 1:
		r.work(ctx)
	default:
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				r.work(obspkg.ForkTrack(ctx, "perm-block"))
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Accounting is one handle fetch and bulk add per call; every quantity
	// is a pure function of the inputs, so the sums are thread-invariant.
	out := make([]PermResult, len(tests))
	evaluated, ran, stopped, blocks := 0, 0, 0, 0
	for t, ts := range r.tests {
		out[t] = PermResult{Obs: ts.obs, P: float64(1+ts.ge) / float64(1+ts.perms), Perms: ts.perms}
		evaluated += ts.perms
		if ts.perms > 0 {
			ran++
			if ts.perms < nperm {
				stopped++
			}
		}
		blocks = max(blocks, (ts.perms+permBlock-1)/permBlock)
	}
	reg := obspkg.FromContext(ctx)
	reg.Counter("stats_perm_blocks_drawn").Add(int64(blocks))
	reg.Counter("stats_perms_evaluated").Add(int64(evaluated))
	if alpha > 0 {
		reg.Counter("stats_earlystop_tests").Add(int64(ran))
		reg.Counter("stats_earlystop_triggers").Add(int64(stopped))
	}
	return out, nil
}

// permRun is the state one PermTests call shares between its workers.
// Fields are written before the workers start, except those marked as
// guarded by mu; each block's row of counts belongs to the worker that
// claimed the block until it hands the block to fold.
type permRun struct {
	n, nd, nperm int // pooled rows, rows drawn per permutation, permutations
	seed         int64
	alpha        float64
	median       bool         // some test needs the median scratch
	ranges       []rangeDiv   // per draw i, the range n−i of every permutation
	cols         []permColumn // the pooled vectors of the mean and variance tests
	tests        []testState

	mu     sync.Mutex
	next   int    // guarded: next block to hand out
	folded int    // guarded: blocks folded so far, always a prefix
	nopen  int    // guarded: tests the fold has not closed
	scored []bool // guarded: per block, counts complete and awaiting the fold
	counts []int  // block-major exceedance counts, len(tests) per block
}

// testState is one test with its column and observed statistic, set
// before the workers start, and its progress, which only fold writes
// (under permRun.mu).
type testState struct {
	PermTest
	col int // index into permRun.cols of a mean or variance test
	obs float64

	ge, perms int // exceedances and permutations folded so far
	open      bool
}

// permColumn is one pooled vector scored by mean and variance tests. A
// permutation scores all of its tests from one pass over the drawn side
// that sums Σx and Σx²; the totals and side X's observed moments are
// computed once, here, for all of them.
type permColumn struct {
	pooled                 []float64
	total, totalSq, sx, qx float64
}

// column returns the index in r.cols of the column over pooled, adding
// it on first sight. Tests share a column when they share a Pooled slice.
func (r *permRun) column(pooled []float64, nx int) int {
	for c := range r.cols {
		if &r.cols[c].pooled[0] == &pooled[0] {
			return c
		}
	}
	c := permColumn{pooled: pooled}
	// Side X's observed moments are the running totals as the sum reaches
	// pooled[nx]: the same additions, in the same order, as a pass over
	// side X alone.
	for i, v := range pooled {
		if i == nx {
			c.sx, c.qx = c.total, c.totalSq
		}
		c.total += v
		c.totalSq += v * v
	}
	r.cols = append(r.cols, c)
	return len(r.cols) - 1
}

// statistic is the MeanDiff or VarDiff statistic of a split of the
// column into a side of nx rows with moments sx = Σx and qx = Σx² and a
// side of the other ny rows, whose moments follow from the column's
// totals, so scoring costs O(nx).
func (c *permColumn) statistic(stat TestStat, nx, ny int, sx, qx float64) float64 {
	fx, fy := float64(nx), float64(ny)
	if stat == MeanDiff {
		return math.Abs(sx/fx - (c.total-sx)/fy)
	}
	mx := sx / fx
	my := (c.total - sx) / fy
	vx := qx/fx - mx*mx
	vy := (c.totalSq-qx)/fy - my*my
	return math.Abs(vx - vy)
}

// sideMoments returns Σx and Σx² over the pooled positions in idx.
func sideMoments(pooled []float64, idx []int32) (sx, qx float64) {
	for _, i := range idx {
		v := pooled[i]
		sx += v
		qx += v * v
	}
	return sx, qx
}

// work claims blocks until none is left, every test is closed or ctx is
// cancelled; it draws and scores each claimed block in its own scratch.
// The pass that places each permutation's drawn side also sums the
// block's first two live columns, whose sums stay in registers; any other
// live column makes its own pass over the drawn side, and each live
// median test copies the whole permutation.
func (r *permRun) work(ctx context.Context) {
	w := r.newWorker()
	nt := len(r.tests)
	live := make([]bool, nt)
	colLive := make([]bool, len(r.cols))
	liveCols := make([]int, 0, len(r.cols))
	sd := make([]float64, len(r.cols))
	qd := make([]float64, len(r.cols))
	for {
		b, ok := r.claim(live)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.StatsPermBlock)
		if ctx.Err() != nil {
			return
		}
		sp := obspkg.StartSpan(ctx, "stats/pair/permblock")
		cnt := r.counts[b*nt : (b+1)*nt]
		clear(colLive)
		for t := range r.tests {
			if live[t] && r.tests[t].Stat != MedianDiff {
				colLive[r.tests[t].col] = true
			}
		}
		liveCols = liveCols[:0]
		for c, on := range colLive {
			if on {
				liveCols = append(liveCols, c)
			}
		}
		var col0, col1 []float64
		if len(liveCols) > 0 {
			col0 = r.cols[liveCols[0]].pooled
		}
		if len(liveCols) > 1 {
			col1 = r.cols[liveCols[1]].pooled
		}
		w.startBlock(r.seed, b)
		for k := b * permBlock; k < min((b+1)*permBlock, r.nperm); k++ {
			dIdx, s0, q0, s1, q1 := w.nextPerm(col0, col1)
			for i, c := range liveCols {
				switch i {
				case 0:
					sd[c], qd[c] = s0, q0
				case 1:
					sd[c], qd[c] = s1, q1
				default:
					sd[c], qd[c] = sideMoments(r.cols[c].pooled, dIdx)
				}
			}
			for t := range r.tests {
				ts := &r.tests[t]
				if !live[t] {
					continue
				}
				var s float64
				if ts.Stat == MedianDiff {
					s = medianStatistic(r.nd, ts.Pooled, w.pool, w.scratch)
				} else {
					s = r.cols[ts.col].statistic(ts.Stat, r.nd, r.n-r.nd, sd[ts.col], qd[ts.col])
				}
				if s >= ts.obs {
					cnt[t]++
				}
			}
		}
		sp.End()
		r.fold(b)
	}
}

// claim hands out the next block and records in live which tests it must
// score: those the fold has not closed yet. A test the fold later closes
// at an earlier block simply never folds this block's count.
func (r *permRun) claim(live []bool) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= len(r.scored) || r.nopen == 0 {
		return 0, false
	}
	for t := range r.tests {
		live[t] = r.tests[t].open
	}
	r.next++
	return r.next - 1, true
}

// fold marks block b scored and folds every scored block at the head of
// the unfolded suffix into the open tests, in block order, closing a test
// at the end of the stream or when the early stop decides it.
func (r *permRun) fold(b int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scored[b] = true
	nt := len(r.tests)
	for ; r.folded < len(r.scored) && r.scored[r.folded]; r.folded++ {
		m := min((r.folded+1)*permBlock, r.nperm)
		for t := range r.tests {
			ts := &r.tests[t]
			if !ts.open {
				continue
			}
			ts.ge += r.counts[r.folded*nt+t]
			ts.perms = m
			if m == r.nperm || r.alpha > 0 && earlyStopDecided(ts.ge, m, r.alpha) {
				ts.open = false
				r.nopen--
			}
		}
	}
}

// rngLen and rngTap are the lags of math/rand's additive lagged
// Fibonacci generator: its output s ≥ rngLen is
// x[s] = x[s−rngLen] + x[s−rngTap] mod 2^64.
const (
	rngLen = 607
	rngTap = 273
)

// permWorker is one worker's reusable draw and scoring scratch. It draws
// the stream of rand.New(rand.NewSource(mixSeed(seed, b))).Intn itself:
// seedRing yields the stream's first rngLen outputs, every later output
// comes from the generator's own recurrence, and every draw follows
// Int31n's rule through the run's range tables, so no draw divides or
// calls through an interface.
type permWorker struct {
	ring    [rngLen]uint64 // rngLen consecutive outputs of the stream
	pos     int            // ring index of the next output; rngLen when spent
	ranges  []rangeDiv
	js      []uint32 // one permutation's draws
	pool    []int32  // pooled row indexes; pool[:nd] labels the drawn side
	scratch *permScratch
}

// newWorker returns a worker over the run's pool and range tables.
func (r *permRun) newWorker() *permWorker {
	w := &permWorker{ranges: r.ranges, js: make([]uint32, len(r.ranges)), pool: make([]int32, r.n)}
	if r.median {
		w.scratch = newPermScratch(r.n)
	}
	return w
}

// startBlock rewinds the worker to the head of block b's stream, the
// source seeded by mixSeed(seed, b), over the identity pool.
func (w *permWorker) startBlock(seed int64, b int) {
	seedRing(&w.ring, mixSeed(seed, int64(b)))
	w.pos = 0
	for i := range w.pool {
		w.pool[i] = int32(i)
	}
}

// refill replaces the ring's outputs with the stream's next rngLen by the
// recurrence, in place: the first rngTap add an old output, the rest one
// this pass has already replaced.
func refill(ring *[rngLen]uint64) {
	for k := 0; k < rngTap; k++ {
		ring[k] += ring[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		ring[k] += ring[k-rngTap]
	}
}

// nextPerm draws the stream's next permutation by a partial Fisher–Yates
// and returns the indexes of its drawn side, one slot per range of the
// worker's table, valid until the next call, with their Σx and Σx² over
// columns a and b; a nil column is not summed. The draws label a side of
// that many rows uniformly, and the pool's remaining slots hold the
// undrawn side. Slot i is final once it is swapped, so the sums are
// taken in the same pass, in the drawn side's order and with
// sideMoments's expressions. The pool keeps its shuffled state between
// draws within a block; the draw stays uniform because any starting
// arrangement of the pool is measure-preserving.
func (w *permWorker) nextPerm(a, b []float64) (dIdx []int32, sa, qa, sb, qb float64) {
	pool, js := w.pool, w.js
	w.draw(js, w.ranges)
	for i, j := range js {
		j := i + int(j)
		p := pool[j]
		pool[j] = pool[i]
		pool[i] = p
		if a != nil {
			x := a[p]
			sa += x
			qa += x * x
		}
		if b != nil {
			y := b[p]
			sb += y
			qb += y * y
		}
	}
	return pool[:len(js)], sa, qa, sb, qb
}

// draw sets js[i] to the stream's next Int31n(ranges[i].r), for each i
// in order. Each Int31 is bits 62..32 of the stream's next output; one
// above the range's bound is dropped and the range drawn again. The ring
// is refilled outside the inner loop, which keeps the loop's state in
// registers.
func (w *permWorker) draw(js []uint32, ranges []rangeDiv) {
	ring, pos := &w.ring, w.pos
	for i := 0; i < len(ranges); {
		if pos == rngLen {
			refill(ring)
			pos = 0
		}
		for ; i < len(ranges) && pos < rngLen; pos++ {
			v := uint32(ring[pos]>>32) & (1<<31 - 1)
			if d := ranges[i]; v <= d.bound {
				js[i] = d.mod(v)
				i++
			}
		}
	}
	w.pos = pos
}

// rangeDiv is one draw range r with Int31n's rule precomputed: draws
// above bound = 2^31−1 − 2^31 mod r are redrawn, and mod needs no
// division. A power of two needs no special case: its bound is 2^31−1,
// and mod is the v & (r−1) that Int31n masks.
type rangeDiv struct {
	m     uint64 // the exact reciprocal ⌊(2^64−1)/r⌋ + 1
	r     uint32
	bound uint32
}

func newRangeDiv(r uint32) rangeDiv {
	return rangeDiv{m: math.MaxUint64/uint64(r) + 1, r: r, bound: 1<<31 - 1 - (1<<31)%r}
}

// mod returns v mod r as hi64((m·v mod 2^64)·r), exact for every
// v < 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019).
func (d rangeDiv) mod(v uint32) uint32 {
	hi, _ := bits.Mul64(d.m*uint64(v), uint64(d.r))
	return uint32(hi)
}

// newRanges returns the ranges of the nd draws of a partial Fisher–Yates
// that labels a side of nd of n pooled rows, nd ≤ n/2: draw i picks from
// the n−i rows not yet placed. Every permutation of a stream makes the
// same draws, so one table serves every worker of a PermTests call.
func newRanges(n, nd int) []rangeDiv {
	out := make([]rangeDiv, nd)
	for i := range out {
		out[i] = newRangeDiv(uint32(n - i))
	}
	return out
}

// mixSeed derives a well-spread per-block seed (splitmix64 finalizer).
func mixSeed(base, block int64) int64 {
	z := uint64(base) + uint64(block+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// permScratch holds the per-worker buffer of the median statistic over n
// pooled rows, so the hot loop allocates nothing per permutation.
type permScratch struct {
	vals []float64 // one side's values, then the other's
}

func newPermScratch(n int) *permScratch {
	return &permScratch{vals: make([]float64, n)}
}

// medianStatistic is |median(D) − median(U)|, where side D is the first
// k pooled rows in the order perm gives, side U the rest, and a nil perm
// is the identity. The sides are copied into the scratch in that order
// and each median selected there in place. A median is an order
// statistic: the order within a side can change only the sign of a zero
// median, which the absolute difference drops.
func medianStatistic(k int, pooled []float64, perm []int32, scratch *permScratch) float64 {
	vals := scratch.vals
	if perm == nil {
		copy(vals, pooled)
	} else {
		for j, i := range perm {
			vals[j] = pooled[i]
		}
	}
	return math.Abs(medianInPlace(vals[:k]) - medianInPlace(vals[k:]))
}
