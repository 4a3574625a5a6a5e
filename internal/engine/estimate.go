package engine

import (
	"math"
	"math/rand"

	"comparenb/internal/table"
)

// GroupEstimator plays the role of the query optimizer's cardinality
// estimate in Algorithm 2: it estimates the number of distinct groups a
// group-by over an attribute set would produce, from a uniform row sample
// of a fixed size, using the GEE estimator of Charikar et al.:
//
//	D̂ = d + (sqrt(n/r) − 1) · f1
//
// where d is the number of distinct groups in the sample, f1 the number of
// groups seen exactly once, n the relation size and r the sample size. If
// the sample size is ≤ 0 or ≥ NumRows the count is exact.
//
// One estimator serves every candidate set of a plan: the Fisher–Yates
// buffer and the count table are allocated once and returned to their
// initial state after each estimate, so a candidate costs its sample, not
// the relation. Each estimate draws from rng exactly as a fresh buffer
// would: rng.Intn(n−i) for i = 0..r−1.
type GroupEstimator struct {
	rel        *table.Relation
	sampleSize int
	idx        []int    // identity between estimates
	drawn      []int    // drawn[i]: the slot swapped with idx[i]
	counts     []uint32 // per key cell, zero between estimates
}

// NewGroupEstimator returns an estimator over rel drawing samples of
// sampleSize rows.
func NewGroupEstimator(rel *table.Relation, sampleSize int) *GroupEstimator {
	return &GroupEstimator{rel: rel, sampleSize: sampleSize}
}

// Estimate returns the estimated number of groups over attrs, drawing the
// sample from rng.
func (e *GroupEstimator) Estimate(attrs []int, rng *rand.Rand) float64 {
	n, r := e.rel.NumRows(), e.sampleSize
	if n == 0 {
		return 0
	}
	if r <= 0 || r >= n {
		return float64(CountGroups(e.rel, attrs))
	}
	sorted := sortedAttrs(attrs)
	d, f1 := e.sampleFreqs(sorted, e.sample(rng))
	e.restore()
	est := float64(d) + (math.Sqrt(float64(n)/float64(r))-1)*float64(f1)

	// The estimate can never exceed the product of the active-domain sizes
	// nor the relation size.
	bound := float64(n)
	prod := 1.0
	for _, a := range sorted {
		prod *= float64(e.rel.DomSize(a))
		if prod > bound {
			prod = bound
			break
		}
	}
	return math.Min(est, math.Min(bound, prod))
}

// sample draws sampleSize distinct row indexes uniformly without
// replacement (partial Fisher–Yates over the shared buffer). The returned
// rows alias the buffer until restore.
func (e *GroupEstimator) sample(rng *rand.Rand) []int {
	n, r := e.rel.NumRows(), e.sampleSize
	if e.idx == nil {
		e.idx = make([]int, n)
		for i := range e.idx {
			e.idx[i] = i
		}
		e.drawn = make([]int, r)
	}
	for i := range e.drawn {
		j := i + rng.Intn(n-i)
		e.idx[i], e.idx[j] = e.idx[j], e.idx[i]
		e.drawn[i] = j
	}
	return e.idx[:r]
}

// restore puts back the identity in every slot the last sample touched.
func (e *GroupEstimator) restore() {
	for i, j := range e.drawn {
		e.idx[i], e.idx[j] = i, j
	}
}

// sampleFreqs returns the number of distinct groups over the sorted
// attributes among rows, and the number seen exactly once. A key space no
// larger than the sample is counted in the reused dense table; any other
// goes through groupFreqs.
func (e *GroupEstimator) sampleFreqs(sorted []int, rows []int) (d, f1 int) {
	ks := newKeySpace(e.rel, sorted)
	if ks.radix == nil || ks.cells > uint64(len(rows)) {
		for _, c := range groupFreqs(e.rel, sorted, rows) {
			d++
			if c == 1 {
				f1++
			}
		}
		return d, f1
	}
	if e.counts == nil {
		e.counts = make([]uint32, len(rows))
	}
	counts := e.counts[:ks.cells]
	cols := make([][]int32, len(sorted))
	for k, a := range sorted {
		cols[k] = e.rel.CatCol(a)
	}
	for _, row := range rows {
		cell := uint64(0)
		for k, col := range cols {
			cell += uint64(uint32(col[row])) * ks.radix[k]
		}
		counts[cell]++
	}
	for _, c := range counts {
		if c != 0 {
			d++
		}
		if c == 1 {
			f1++
		}
	}
	clear(counts)
	return d, f1
}

// CountGroups counts the exact number of distinct groups over attrs.
func CountGroups(rel *table.Relation, attrs []int) int {
	return len(groupFreqs(rel, sortedAttrs(attrs), nil))
}

// groupFreqs returns the row count of every distinct group over the sorted
// attributes among rows (every row when rows is nil), in first-occurrence
// order. The group index takes a dense table only when the code space is
// no larger than the row count, so the table never costs more than a map
// over the rows would.
func groupFreqs(rel *table.Relation, sorted []int, rows []int) []int {
	count := len(rows)
	if rows == nil {
		count = rel.NumRows()
	}
	ks := newKeySpace(rel, sorted)
	ix := newGroupIndex(ks, len(sorted), ks.capHint(count), min(uint64(count), maxDenseCells))
	cols := make([][]int32, len(sorted))
	for k, a := range sorted {
		cols[k] = rel.CatCol(a)
	}
	var freq []int
	add := func(row int) {
		for k, col := range cols {
			ix.key[k] = col[row]
		}
		g, isNew := ix.lookupOrAdd(ix.key)
		if isNew {
			freq = append(freq, 0)
		}
		freq[g]++
	}
	if rows == nil {
		for row := 0; row < count; row++ {
			add(row)
		}
	}
	for _, row := range rows {
		add(row)
	}
	return freq
}
