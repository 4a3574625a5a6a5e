package engine

import "comparenb/internal/table"

// FD records a functional dependency between two categorical attributes:
// every value of Det determines a single value of Dep.
type FD struct {
	Det int // determinant attribute index
	Dep int // dependent attribute index
}

// DetectFDs finds all pairwise functional dependencies between categorical
// attributes. This is the pre-processing step of the paper (footnote 2):
// the pipeline later skips comparison queries (A, B, ...) where A→B or
// B→A, e.g. selecting two days and grouping over months.
func DetectFDs(rel *table.Relation) []FD {
	return DetectFDsApprox(rel, 0)
}

// DetectFDsApprox finds approximate pairwise functional dependencies: a
// dependency det → dep holds when its g3 error — the minimum fraction of
// tuples that must be removed for the FD to hold exactly — is at most
// maxError. Real data is dirty; a commune column with a handful of
// mistyped departments should still disqualify the degenerate queries the
// FD pre-processing exists to prevent. maxError = 0 is the exact check.
//
// The g3 error of det → dep is 1 − (Σ over det values of the most common
// dep value's count) / N, and 0 on an empty relation. Both directions of
// a pair come from one joint count of the pair's codes.
func DetectFDsApprox(rel *table.Relation, maxError float64) []FD {
	n := rel.NumCatAttrs()
	g3 := make([]float64, n*n) // g3[det*n+dep]
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			g3[a*n+b], g3[b*n+a] = pairFDErrors(rel, a, b)
		}
	}
	var fds []FD
	for det := 0; det < n; det++ {
		for dep := 0; dep < n; dep++ {
			if det != dep && g3[det*n+dep] <= maxError {
				fds = append(fds, FD{Det: det, Dep: dep})
			}
		}
	}
	return fds
}

// pairFDErrors returns the g3 errors of a → b and b → a. The joint count
// is a dense table over dom(a)·dom(b) cells when that is no larger than
// the row count, as in groupFreqs, and a map over the code pairs present
// otherwise.
func pairFDErrors(rel *table.Relation, a, b int) (ab, ba float64) {
	nRows := rel.NumRows()
	if nRows == 0 {
		return 0, 0
	}
	colA, colB := rel.CatCol(a), rel.CatCol(b)
	domA, domB := rel.DomSize(a), rel.DomSize(b)
	// bestB[ca] is the count of the most common b value among the rows of
	// a's value ca; bestA[cb] likewise.
	bestB, bestA := make([]int, domA), make([]int, domB)
	if uint64(domA)*uint64(domB) <= uint64(nRows) {
		cells := make([]int32, domA*domB)
		for row, ca := range colA {
			cells[int(ca)*domB+int(colB[row])]++
		}
		for ca := range bestB {
			for cb, c := range cells[ca*domB : (ca+1)*domB] {
				bestB[ca] = max(bestB[ca], int(c))
				bestA[cb] = max(bestA[cb], int(c))
			}
		}
	} else {
		counts := make(map[int64]int)
		for row, ca := range colA {
			counts[int64(ca)*int64(domB)+int64(colB[row])]++
		}
		for key, c := range counts {
			ca, cb := key/int64(domB), key%int64(domB)
			bestB[ca] = max(bestB[ca], c)
			bestA[cb] = max(bestA[cb], c)
		}
	}
	keepAB, keepBA := 0, 0
	for _, c := range bestB {
		keepAB += c
	}
	for _, c := range bestA {
		keepBA += c
	}
	return 1 - float64(keepAB)/float64(nRows), 1 - float64(keepBA)/float64(nRows)
}

// FDSet is a lookup structure over detected FDs.
type FDSet struct {
	related map[[2]int]bool
}

// NewFDSet indexes the given FDs for MeaninglessPair queries.
func NewFDSet(fds []FD) *FDSet {
	s := &FDSet{related: make(map[[2]int]bool, 2*len(fds))}
	for _, fd := range fds {
		s.related[[2]int{fd.Det, fd.Dep}] = true
	}
	return s
}

// MeaninglessPair reports whether a comparison query grouping by a and
// selecting on b is degenerate: if b→a every selected value contributes at
// most one group, and if a→b one of the two selections is empty within
// every group, so the join of Def. 3.1 collapses.
func (s *FDSet) MeaninglessPair(a, b int) bool {
	return s.related[[2]int{a, b}] || s.related[[2]int{b, a}]
}
