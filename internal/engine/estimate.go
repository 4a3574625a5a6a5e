package engine

import (
	"math"
	"math/rand"

	"comparenb/internal/table"
)

// EstimateGroups plays the role of the query optimizer's cardinality
// estimate in Algorithm 2: it estimates the number of distinct groups a
// group-by over attrs would produce, from a uniform row sample of the given
// size, using the GEE estimator of Charikar et al.:
//
//	D̂ = d + (sqrt(n/r) − 1) · f1
//
// where d is the number of distinct groups in the sample, f1 the number of
// groups seen exactly once, n the relation size and r the sample size. If
// sampleSize ≥ NumRows the count is exact.
func EstimateGroups(rel *table.Relation, attrs []int, sampleSize int, rng *rand.Rand) float64 {
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

	// The estimate can never exceed the product of the active-domain sizes
	// nor the relation size.
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

// sampleRows draws k distinct row indexes uniformly without replacement
// (partial Fisher–Yates).
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
