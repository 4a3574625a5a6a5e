package engine

import (
	"math"
	"slices"
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
	var j PairJoin
	j.Join(c, attrA, attrB, val, val2, c.rel.SortedDomain(attrA))
	res := &ComparisonResult{Groups: j.Groups}
	res.Left, res.Right = j.Series(meas, agg, nil, nil)
	return res
}

// PairJoin is the inner join of Def. 3.1 taken on a pair cube: the
// A-groups present for both selections B = val and B = val', in the order
// of A's values, with the cube group that answers each side. One walk of
// the cube fills it, and every aggregate's series is read from it, so the
// five hypothesis queries of one (insight, A) cost one walk. The zero
// value is ready to use; Join reuses its buffers.
type PairJoin struct {
	// Groups are the matched codes of A in value order; γ_q is their
	// number.
	Groups []int32
	// Theta is θ_q: the tuples whose B is val or val', matched or not.
	Theta int

	c     *Cube
	sides []groupPair // cube groups answering Groups[i]
	slots []groupPair // per A code: cube group + 1 of each side, 0 = none
}

type groupPair struct{ left, right int32 }

// Join walks cube c once for the comparison of B = val against B = val'
// grouped by A. rank lists A's codes in value order
// (Relation.SortedDomain(A)); the matched groups come out in that order,
// which is the order of A's distinct value strings. A cube wider than
// {A, B} is rolled up first. When val == val', every group lands on both
// sides.
func (j *PairJoin) Join(c *Cube, attrA, attrB int, val, val2 int32, rank []int32) {
	if len(c.attrs) != 2 || c.attrs[0] != min(attrA, attrB) || c.attrs[1] != max(attrA, attrB) {
		c = c.Rollup([]int{attrA, attrB})
	}
	posA, posB := 0, 1
	if c.attrs[0] == attrB {
		posA, posB = 1, 0
	}
	d := len(rank)
	if cap(j.slots) < d {
		j.slots = make([]groupPair, d)
	}
	j.slots = j.slots[:d]
	j.c, j.Theta = c, 0
	keys := c.keyData
	for g, n := range c.counts {
		b := keys[2*g+posB]
		if b != val && b != val2 {
			continue
		}
		j.Theta += int(n)
		s := &j.slots[keys[2*g+posA]]
		if b == val {
			s.left = int32(g) + 1
		}
		if b == val2 {
			s.right = int32(g) + 1
		}
	}
	j.Groups, j.sides = slices.Grow(j.Groups[:0], d), slices.Grow(j.sides[:0], d)
	for _, a := range rank {
		if s := j.slots[a]; s.left != 0 && s.right != 0 {
			j.Groups = append(j.Groups, a)
			j.sides = append(j.sides, groupPair{s.left - 1, s.right - 1})
		}
	}
	clear(j.slots)
}

// Series appends agg(M) of every matched group's two sides to left and
// right, aligned with Groups, and returns them.
func (j *PairJoin) Series(meas int, agg Agg, left, right []float64) ([]float64, []float64) {
	left, right = slices.Grow(left, len(j.sides)), slices.Grow(right, len(j.sides))
	for _, s := range j.sides {
		left = append(left, j.c.Value(int(s.left), meas, agg))
		right = append(right, j.c.Value(int(s.right), meas, agg))
	}
	return left, right
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

// joinSeries is CompareDirect's join: the A-groups of both selections,
// sorted by A's value strings.
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
