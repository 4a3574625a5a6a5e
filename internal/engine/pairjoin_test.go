package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// compareFromCubeMaps is the cube join PairJoin replaced: every group of
// the (rolled-up) pair cube is walked, each selection's values go into a
// map keyed by A's code, and joinSeries joins the maps and sorts the rows
// by A's value strings.
func compareFromCubeMaps(c *Cube, attrA, attrB int, val, val2 int32, meas int, agg Agg) *ComparisonResult {
	if len(c.attrs) != 2 || c.attrs[0] != min(attrA, attrB) || c.attrs[1] != max(attrA, attrB) {
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

// thetaOracle counts the tuples of the groups whose B is val or val'.
func thetaOracle(c *Cube, attrB int, val, val2 int32) int {
	posB := mustAttrPos(c.attrs, attrB)
	theta := 0
	for g := 0; g < c.NumGroups(); g++ {
		if b := c.GroupKey(g)[posB]; b == val || b == val2 {
			theta += int(c.Count(g))
		}
	}
	return theta
}

// requireSameResult fails unless got has want's groups, in want's order,
// and bit-identical values on both sides.
func requireSameResult(t *testing.T, label string, want, got *ComparisonResult) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Left) != want.Len() || len(got.Right) != want.Len() {
		t.Fatalf("%s: %d groups (%d left, %d right), oracle %d", label, got.Len(), len(got.Left), len(got.Right), want.Len())
	}
	for i := range want.Groups {
		if got.Groups[i] != want.Groups[i] ||
			math.Float64bits(got.Left[i]) != math.Float64bits(want.Left[i]) ||
			math.Float64bits(got.Right[i]) != math.Float64bits(want.Right[i]) {
			t.Fatalf("%s row %d: (%d, %v, %v), oracle (%d, %v, %v)", label, i,
				got.Groups[i], got.Left[i], got.Right[i], want.Groups[i], want.Left[i], want.Right[i])
		}
	}
}

// checkPairJoin holds one PairJoin walk and CompareFromCube to the
// map-based join on cube c for the comparison of B = val against B = val'
// grouped by A: θ, and for every measure and aggregate the same groups in
// the same order with bit-identical values. j is reused, as a worker
// reuses its join.
func checkPairJoin(t *testing.T, label string, j *PairJoin, c *Cube, attrA, attrB int, val, val2 int32) {
	t.Helper()
	rel := c.Relation()
	j.Join(c, attrA, attrB, val, val2, rel.SortedDomain(attrA))
	if want := thetaOracle(c, attrB, val, val2); j.Theta != want {
		t.Fatalf("%s: θ = %d, oracle %d", label, j.Theta, want)
	}
	var left, right []float64
	for m := 0; m < rel.NumMeasures(); m++ {
		for _, agg := range AllAggs {
			l := fmt.Sprintf("%s m%d %s", label, m, agg)
			want := compareFromCubeMaps(c, attrA, attrB, val, val2, m, agg)
			left, right = j.Series(m, agg, left[:0], right[:0])
			requireSameResult(t, l+" PairJoin", want, &ComparisonResult{Groups: j.Groups, Left: left, Right: right})
			requireSameResult(t, l+" CompareFromCube", want, CompareFromCube(c, attrA, attrB, val, val2, m, agg))
		}
	}
}

// messyRelation draws a relation whose values are shuffled labels, so
// dictionary (first-occurrence) order and value order disagree, and whose
// measures mix NaN with payloads, -0.0, small integers that tie across
// groups, and inexact floats. Measure 1 is mostly NaN, so some groups have
// no value at all.
func messyRelation(rng *rand.Rand, doms []int, rows int) *table.Relation {
	cats := make([]string, len(doms))
	labels := make([][]string, len(doms))
	for a, d := range doms {
		cats[a] = fmt.Sprintf("c%d", a)
		for _, v := range rng.Perm(d) {
			labels[a] = append(labels[a], fmt.Sprintf("v%02d", v))
		}
	}
	b := table.NewBuilder("messy", cats, []string{"m0", "m1"})
	row := make([]string, len(doms))
	value := func(nanShare float64) float64 {
		switch p := rng.Float64(); {
		case p < nanShare:
			return math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(rng.Intn(256)))
		case p < nanShare+0.1:
			return math.Copysign(0, -1)
		case p < nanShare+0.5:
			return float64(rng.Intn(3))
		default:
			return rng.NormFloat64() * 10
		}
	}
	for r := 0; r < rows; r++ {
		for a := range doms {
			row[a] = labels[a][rng.Intn(len(labels[a]))]
		}
		b.AddRow(row, []float64{value(0.1), value(0.8)})
	}
	return b.Build()
}

// TestPairJoinMatchesMapJoin is the differential test of the cube join:
// on random relations with NaN cells, -0.0 and ties, for every ordered
// attribute pair and every (val, val') over dom(B) plus a code no group
// has (so either side may be absent, and val == val'), the join over the
// pair cube and over 3- and 4-attribute cubes it is rolled up from must
// match the map-based oracle. A single-valued attribute gives one-group
// joins, and a half-relation sharing the dictionaries leaves codes absent.
func TestPairJoinMatchesMapJoin(t *testing.T) {
	var j PairJoin
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		full := messyRelation(rng, []int{1 + rng.Intn(6), 1, 2 + rng.Intn(5), 2 + rng.Intn(4)}, 40+rng.Intn(160))
		half := make([]int, full.NumRows()/2)
		for i := range half {
			half[i] = 2 * i
		}
		for ri, rel := range []*table.Relation{full, full.Select(half)} {
			all := mustBuildCube(t, rel, []int{0, 1, 2, 3}, 1)
			for attrA := 0; attrA < 4; attrA++ {
				for attrB := 0; attrB < 4; attrB++ {
					if attrA == attrB {
						continue
					}
					third := 0
					for third == attrA || third == attrB {
						third++
					}
					cubes := []*Cube{
						mustBuildCube(t, rel, []int{attrA, attrB}, 1),
						mustBuildCube(t, rel, []int{attrA, attrB, third}, 1),
						all,
					}
					vals := append(rel.SortedDomain(attrB), int32(rel.DomSize(attrB)))
					for _, c := range cubes {
						for _, val := range vals {
							for _, val2 := range vals {
								label := fmt.Sprintf("seed %d rel %d A=%d B=%d cube %v (%d, %d)", seed, ri, attrA, attrB, c.attrs, val, val2)
								checkPairJoin(t, label, &j, c, attrA, attrB, val, val2)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzPairJoin checks the cube join against the map-based oracle on
// fuzz-decoded relations (fuzzRelation): for every ordered pair among the
// first four attributes and every (val, val') over dom(B), θ and every
// aggregate of every measure, over the pair cube and, when the relation
// has a third attribute, over the cube of all attributes rolled up. The
// seed corpus lives in testdata/fuzz/FuzzPairJoin.
func FuzzPairJoin(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		if rel == nil {
			return
		}
		nA := min(rel.NumCatAttrs(), 4)
		var wide *Cube
		if nA >= 3 {
			attrs := make([]int, nA)
			for a := range attrs {
				attrs[a] = a
			}
			wide = mustBuildCube(t, rel, attrs, 1)
		}
		var j PairJoin
		for attrA := 0; attrA < nA; attrA++ {
			for attrB := 0; attrB < nA; attrB++ {
				if attrA == attrB {
					continue
				}
				cubes := []*Cube{mustBuildCube(t, rel, []int{attrA, attrB}, 1)}
				if wide != nil {
					cubes = append(cubes, wide)
				}
				vals := rel.SortedDomain(attrB)
				for _, c := range cubes {
					for _, val := range vals {
						for _, val2 := range vals {
							checkPairJoin(t, fmt.Sprintf("A=%d B=%d cube %v (%d, %d)", attrA, attrB, c.attrs, val, val2), &j, c, attrA, attrB, val, val2)
						}
					}
				}
			}
		}
	})
}
