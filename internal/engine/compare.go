package engine

import (
	"math"
	"sort"

	"comparenb/internal/table"
)

// ComparisonResult is the tabular result of a comparison query
// (Def. 3.1): one row per group-by value a of A that occurs on both sides,
// with Left = agg(M) where B=val and Right = agg(M) where B=val'. Rows are
// sorted by the string value of A (the τ_A of the definition).
type ComparisonResult struct {
	Groups []int32 // codes of A
	Left   []float64
	Right  []float64
}

// Len returns the number of rows of the result.
func (cr *ComparisonResult) Len() int { return len(cr.Groups) }

// CompareFromCube answers the comparison query (A, B, val, val', M, agg)
// from a cube whose attributes include A and B (rolling up first if the
// cube is wider). The inner join of Def. 3.1 keeps only the A-groups
// present for both selections.
func CompareFromCube(c *Cube, attrA, attrB int, val, val2 int32, meas int, agg Agg) *ComparisonResult {
	if len(c.attrs) != 2 || c.attrs[0] != minInt(attrA, attrB) || c.attrs[1] != maxInt(attrA, attrB) {
		c = c.Rollup([]int{attrA, attrB})
	}
	posA, posB := 0, 1
	if c.attrs[0] == attrB {
		posA, posB = 1, 0
	}
	left := make(map[int32]float64)
	right := make(map[int32]float64)
	for g := 0; g < c.NumGroups(); g++ {
		key := c.GroupKey(g)
		b := key[posB]
		if b != val && b != val2 {
			continue
		}
		a := key[posA]
		v := c.Value(g, meas, agg)
		if b == val {
			left[a] = v
		}
		if b == val2 {
			right[a] = v
		}
	}
	return joinSeries(c.rel, attrA, left, right)
}

// CompareDirect evaluates the comparison query by scanning the base
// relation twice (once per selection), grouping, joining and sorting —
// the literal query plan of Def. 3.1. cmd/compare answers its ad-hoc
// query with it and Figure 5 times it; the pipeline answers the same
// query from cubes with CompareFromCube.
func CompareDirect(rel *table.Relation, attrA, attrB int, val, val2 int32, meas int, agg Agg) *ComparisonResult {
	left := aggBySelection(rel, attrA, attrB, val, meas, agg)
	right := aggBySelection(rel, attrA, attrB, val2, meas, agg)
	return joinSeries(rel, attrA, left, right)
}

func aggBySelection(rel *table.Relation, attrA, attrB int, val int32, meas int, agg Agg) map[int32]float64 {
	colA := rel.CatCol(attrA)
	colB := rel.CatCol(attrB)
	mcol := rel.MeasCol(meas)
	type state struct {
		count    int64
		sum      float64
		min, max float64
	}
	states := make(map[int32]*state)
	for i, b := range colB {
		if b != val {
			continue
		}
		s := states[colA[i]]
		if s == nil {
			s = &state{min: math.NaN(), max: math.NaN()}
			states[colA[i]] = s
		}
		s.count++
		v := mcol[i]
		if math.IsNaN(v) {
			continue
		}
		s.sum += v
		if math.IsNaN(s.min) || v < s.min {
			s.min = v
		}
		if math.IsNaN(s.max) || v > s.max {
			s.max = v
		}
	}
	out := make(map[int32]float64, len(states))
	for a, s := range states {
		switch agg {
		case Sum:
			out[a] = s.sum
		case Avg:
			out[a] = s.sum / float64(s.count)
		case Min:
			out[a] = s.min
		case Max:
			out[a] = s.max
		case Count:
			out[a] = float64(s.count)
		}
	}
	return out
}

func joinSeries(rel *table.Relation, attrA int, left, right map[int32]float64) *ComparisonResult {
	res := &ComparisonResult{}
	for a, lv := range left {
		rv, ok := right[a]
		if !ok {
			continue
		}
		res.Groups = append(res.Groups, a)
		res.Left = append(res.Left, lv)
		res.Right = append(res.Right, rv)
	}
	sort.Sort(&byValue{rel: rel, attr: attrA, res: res})
	return res
}

type byValue struct {
	rel  *table.Relation
	attr int
	res  *ComparisonResult
}

func (s *byValue) Len() int { return len(s.res.Groups) }
func (s *byValue) Less(i, j int) bool {
	return s.rel.Value(s.attr, s.res.Groups[i]) < s.rel.Value(s.attr, s.res.Groups[j])
}
func (s *byValue) Swap(i, j int) {
	r := s.res
	r.Groups[i], r.Groups[j] = r.Groups[j], r.Groups[i]
	r.Left[i], r.Left[j] = r.Left[j], r.Left[i]
	r.Right[i], r.Right[j] = r.Right[j], r.Right[i]
}

// FilterMeasure returns the non-NaN values of measure meas on the tuples
// where attr = code: the random-variable sample X of Def. 3.6 that the
// statistical tests run on.
func FilterMeasure(rel *table.Relation, attr int, code int32, meas int) []float64 {
	col := rel.CatCol(attr)
	mcol := rel.MeasCol(meas)
	var out []float64
	for i, c := range col {
		if c == code && !math.IsNaN(mcol[i]) {
			out = append(out, mcol[i])
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
