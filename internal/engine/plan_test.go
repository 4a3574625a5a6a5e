package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"comparenb/internal/table"
)

func TestScanShape(t *testing.T) {
	rel := covidRelation()
	rows, err := Scan(rel).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.N != 10 || len(rows.Names) != 3 {
		t.Fatalf("scan shape: %d rows, %d cols", rows.N, len(rows.Names))
	}
	if rows.Col("continent") != 0 || rows.Col("cases") != 2 {
		t.Error("column order wrong")
	}
	if rows.Col("nope") != -1 {
		t.Error("missing column lookup should be -1")
	}
	if rows.Kinds[2] != Num {
		t.Error("measure column should be numeric")
	}
}

func TestSelectEq(t *testing.T) {
	rel := covidRelation()
	rows, err := SelectEq(Scan(rel), "month", "4").Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.N != 5 {
		t.Errorf("σ(month=4) rows = %d, want 5", rows.N)
	}
	rows, err = SelectIn(Scan(rel), "continent", "Africa", "Asia").Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.N != 4 {
		t.Errorf("σ(continent∈{Africa,Asia}) rows = %d, want 4", rows.N)
	}
}

func TestGroupByPlanAggregates(t *testing.T) {
	rel := covidRelation()
	plan := GroupBy(Scan(rel), []string{"continent"},
		AggSpec{Agg: Sum, Col: "cases", As: "total"},
		AggSpec{Agg: Count, As: "n"},
		AggSpec{Agg: Min, Col: "cases", As: "lo"},
	)
	rows, err := plan.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.N != 5 {
		t.Fatalf("groups = %d, want 5", rows.N)
	}
	ci := rows.Col("continent")
	for row := 0; row < rows.N; row++ {
		if rows.Strs[ci][row] != "Africa" {
			continue
		}
		if got := rows.Nums[rows.Col("total")][row]; got != 31598+92626 {
			t.Errorf("sum(Africa) = %v", got)
		}
		if got := rows.Nums[rows.Col("n")][row]; got != 2 {
			t.Errorf("count(Africa) = %v", got)
		}
		if got := rows.Nums[rows.Col("lo")][row]; got != 31598 {
			t.Errorf("min(Africa) = %v", got)
		}
	}
}

func TestGroupByErrors(t *testing.T) {
	rel := covidRelation()
	if _, err := GroupBy(Scan(rel), []string{"cases"}).Run(); err == nil {
		t.Error("grouping by a measure should fail")
	}
	if _, err := GroupBy(Scan(rel), []string{"continent"},
		AggSpec{Agg: Sum, Col: "continent", As: "x"}).Run(); err == nil {
		t.Error("aggregating a string column should fail")
	}
}

func TestJoinProjectSortErrors(t *testing.T) {
	rel := covidRelation()
	if _, err := JoinOn(Scan(rel), Scan(rel), "cases").Run(); err == nil {
		t.Error("joining on a numeric column should fail")
	}
	if _, err := SortBy(Scan(rel), "missing").Run(); err == nil {
		t.Error("sorting by a missing column should fail")
	}
	if _, err := Project(Scan(rel), "missing").Run(); err == nil {
		t.Error("projecting a missing column should fail")
	}
}

func TestJoinDisambiguatesColumns(t *testing.T) {
	rel := covidRelation()
	l := GroupBy(Scan(rel), []string{"continent"}, AggSpec{Agg: Sum, Col: "cases", As: "total"})
	r := GroupBy(Scan(rel), []string{"continent"}, AggSpec{Agg: Count, As: "total"})
	rows, err := JoinOn(l, r, "continent").Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows.Col("total") < 0 || rows.Col("r.total") < 0 {
		t.Errorf("duplicate columns not disambiguated: %v", rows.Names)
	}
}

// TestComparisonPlanMatchesDirect: the literal Def. 3.1 operator tree must
// agree bit for bit with the specialised CompareDirect evaluator, whose
// result cmd/compare prints. The inputs cover a relation longer than one
// cube shard and measures with NaN (with and without payload), -0.0, ±Inf
// and all-NaN groups; floats compare through Float64bits, so NaN matches
// only NaN with the same bits.
func TestComparisonPlanMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		name string
		rel  *table.Relation
	}{
		{"random", randomRelation(3, []int{4, 5, 3}, 2, 600, 37)},
		{"mixed, two shards", mixedRelation(buildShardRows+4321, 37)},
		{"edge", edgeRelation(3000, 5)},
	} {
		rel := tc.rel
		dom := rel.SortedDomain(1)
		for m := 0; m < rel.NumMeasures(); m++ {
			for _, agg := range AllAggs {
				plan := ComparisonPlan(rel, 0, 1, dom[0], dom[1], m, agg)
				rows, err := plan.Run()
				if err != nil {
					t.Fatal(err)
				}
				want := CompareDirect(rel, 0, 1, dom[0], dom[1], m, agg)
				label := fmt.Sprintf("%s %s(%s)", tc.name, agg, rel.MeasName(m))
				if rows.N != want.Len() {
					t.Fatalf("%s: plan %d rows, direct %d", label, rows.N, want.Len())
				}
				gi, li, ri := rows.Col(rel.CatName(0)), rows.Col("left"), rows.Col("right")
				for i := 0; i < rows.N; i++ {
					if rows.Strs[gi][i] != rel.Value(0, want.Groups[i]) {
						t.Fatalf("%s row %d: group %q vs %q", label, i, rows.Strs[gi][i], rel.Value(0, want.Groups[i]))
					}
					l, r := rows.Nums[li][i], rows.Nums[ri][i]
					if math.Float64bits(l) != math.Float64bits(want.Left[i]) ||
						math.Float64bits(r) != math.Float64bits(want.Right[i]) {
						t.Errorf("%s row %d: plan (%v,%v) direct (%v,%v)", label, i, l, r, want.Left[i], want.Right[i])
					}
				}
			}
		}
	}
}

func TestExplainTree(t *testing.T) {
	rel := covidRelation()
	dom := rel.SortedDomain(1)
	plan := ComparisonPlan(rel, 0, 1, dom[0], dom[1], 0, Sum)
	out := plan.Explain()
	for _, want := range []string{"π(", "τ(continent)", "⋈(on=continent)", "γ(keys=[continent]", `σ(month = "4")`, "Scan(covid)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestRowsString(t *testing.T) {
	rel := covidRelation()
	rows, err := GroupBy(Scan(rel), []string{"continent"}, AggSpec{Agg: Count, As: "n"}).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := rows.String()
	if !strings.Contains(s, "continent | n") || !strings.Contains(s, "Africa | 2") {
		t.Errorf("render:\n%s", s)
	}
}
