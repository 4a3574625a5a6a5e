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
// B→A, e.g. selecting two days and grouping over months. Both directions
// of a pair come from one joint count of the pair's codes. On an empty
// relation every dependency holds.
func DetectFDs(rel *table.Relation) []FD {
	n := rel.NumCatAttrs()
	holds := make([]bool, n*n) // holds[det*n+dep]
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			holds[a*n+b], holds[b*n+a] = pairFDs(rel, a, b)
		}
	}
	var fds []FD
	for det := 0; det < n; det++ {
		for dep := 0; dep < n; dep++ {
			if det != dep && holds[det*n+dep] {
				fds = append(fds, FD{Det: det, Dep: dep})
			}
		}
	}
	return fds
}

// pairFDs reports whether a → b and b → a hold: det → dep holds when,
// summed over det's values, the most common dep value's count covers
// every row. The joint count is a dense table over dom(a)·dom(b) cells
// when that is no larger than the row count, as in groupFreqs, and a map
// over the code pairs present otherwise.
func pairFDs(rel *table.Relation, a, b int) (ab, ba bool) {
	nRows := rel.NumRows()
	if nRows == 0 {
		return true, true
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
	return keepAB == nRows, keepBA == nRows
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
