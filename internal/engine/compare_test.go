package engine

import (
	"math"
	"testing"

	"comparenb/internal/table"
)

func codes(t *testing.T, rel *table.Relation, attr int, vals ...string) []int32 {
	t.Helper()
	out := make([]int32, len(vals))
	for i, v := range vals {
		c, ok := rel.CodeOf(attr, v)
		if !ok {
			t.Fatalf("value %q not in dom(%s)", v, rel.CatName(attr))
		}
		out[i] = c
	}
	return out
}

// TestComparePaperExample reproduces the table of Figure 2: sum(cases) by
// continent for month 4 vs month 5.
func TestComparePaperExample(t *testing.T) {
	rel := covidRelation()
	cs := codes(t, rel, 1, "4", "5")
	cube := mustBuildCube(t, rel, []int{0, 1}, 1)
	res := CompareFromCube(cube, 0, 1, cs[0], cs[1], 0, Sum)
	if res.Len() != 5 {
		t.Fatalf("rows = %d, want 5", res.Len())
	}
	wantLeft := []float64{31598, 1104862, 333821, 863874, 2812}
	wantRight := []float64{92626, 1404912, 537584, 608110, 467}
	wantNames := []string{"Africa", "America", "Asia", "Europe", "Oceania"}
	for i := range wantLeft {
		if got := rel.Value(0, res.Groups[i]); got != wantNames[i] {
			t.Errorf("row %d group = %s, want %s", i, got, wantNames[i])
		}
		if res.Left[i] != wantLeft[i] || res.Right[i] != wantRight[i] {
			t.Errorf("row %d = (%v, %v), want (%v, %v)", i, res.Left[i], res.Right[i], wantLeft[i], wantRight[i])
		}
	}
}

// TestCompareCubeMatchesDirect cross-checks the cube evaluation against the
// literal two-scan join plan on random data, for all aggregates.
func TestCompareCubeMatchesDirect(t *testing.T) {
	rel := randomRelation(3, []int{5, 4, 6}, 2, 800, 23)
	cube := mustBuildCube(t, rel, []int{0, 1, 2}, 1)
	for attrA := 0; attrA < 3; attrA++ {
		for attrB := 0; attrB < 3; attrB++ {
			if attrA == attrB {
				continue
			}
			dom := rel.SortedDomain(attrB)
			val, val2 := dom[0], dom[1]
			for _, agg := range AllAggs {
				for m := 0; m < 2; m++ {
					a := CompareFromCube(cube, attrA, attrB, val, val2, m, agg)
					b := CompareDirect(rel, attrA, attrB, val, val2, m, agg)
					if a.Len() != b.Len() {
						t.Fatalf("A=%d B=%d %s: cube rows %d, direct rows %d", attrA, attrB, agg, a.Len(), b.Len())
					}
					for i := range a.Groups {
						if a.Groups[i] != b.Groups[i] {
							t.Fatalf("A=%d B=%d %s row %d: group %d vs %d", attrA, attrB, agg, i, a.Groups[i], b.Groups[i])
						}
						if math.Abs(a.Left[i]-b.Left[i]) > 1e-9*(1+math.Abs(b.Left[i])) ||
							math.Abs(a.Right[i]-b.Right[i]) > 1e-9*(1+math.Abs(b.Right[i])) {
							t.Errorf("A=%d B=%d %s row %d: (%v,%v) vs (%v,%v)",
								attrA, attrB, agg, i, a.Left[i], a.Right[i], b.Left[i], b.Right[i])
						}
					}
				}
			}
		}
	}
}

func TestCompareInnerJoinDropsOneSidedGroups(t *testing.T) {
	b := table.NewBuilder("r", []string{"g", "s"}, []string{"m"})
	b.AddRow([]string{"both", "l"}, []float64{1})
	b.AddRow([]string{"both", "r"}, []float64{2})
	b.AddRow([]string{"leftonly", "l"}, []float64{3})
	b.AddRow([]string{"rightonly", "r"}, []float64{4})
	rel := b.Build()
	cs := codes(t, rel, 1, "l", "r")
	res := CompareDirect(rel, 0, 1, cs[0], cs[1], 0, Sum)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (inner join)", res.Len())
	}
	if rel.Value(0, res.Groups[0]) != "both" {
		t.Errorf("kept group = %s, want both", rel.Value(0, res.Groups[0]))
	}
}

func TestCompareEmptySelection(t *testing.T) {
	rel := covidRelation()
	cube := mustBuildCube(t, rel, []int{0, 1}, 1)
	// month "4" vs month "4" is a degenerate but well-defined comparison.
	cs := codes(t, rel, 1, "4")
	res := CompareFromCube(cube, 0, 1, cs[0], cs[0], 0, Sum)
	if res.Len() != 5 {
		t.Errorf("self comparison rows = %d, want 5", res.Len())
	}
	for i := range res.Left {
		if res.Left[i] != res.Right[i] {
			t.Errorf("self comparison row %d differs", i)
		}
	}
}

func TestFilterMeasure(t *testing.T) {
	b := table.NewBuilder("r", []string{"g"}, []string{"m"})
	b.AddRow([]string{"x"}, []float64{1})
	b.AddRow([]string{"y"}, []float64{2})
	b.AddRow([]string{"x"}, []float64{math.NaN()})
	b.AddRow([]string{"x"}, []float64{3})
	rel := b.Build()
	cx, _ := rel.CodeOf(0, "x")
	got := FilterMeasure(rel, 0, cx, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("FilterMeasure = %v, want [1 3] (NaN dropped)", got)
	}
}

func TestPairRows(t *testing.T) {
	rel := covidRelation()
	cs := codes(t, rel, 0, "Africa", "Asia")
	rows := PairRows(rel, 0, cs[0], cs[1])
	if len(rows) != 4 {
		t.Errorf("PairRows = %v, want 4 rows", rows)
	}
	for _, r := range rows {
		v := rel.Value(0, rel.CatCol(0)[r])
		if v != "Africa" && v != "Asia" {
			t.Errorf("row %d has value %s", r, v)
		}
	}
}

// PairRows returns the row indexes where attr is code a or code b, in row
// order. The permutation tests pool exactly these rows.
func PairRows(rel *table.Relation, attr int, a, b int32) []int {
	col := rel.CatCol(attr)
	var out []int
	for i, c := range col {
		if c == a || c == b {
			out = append(out, i)
		}
	}
	return out
}
