package insight

import (
	"context"
	"strings"
	"testing"

	"comparenb/internal/engine"
	"comparenb/internal/table"
)

func covidRelation() *table.Relation {
	b := table.NewBuilder("covid", []string{"continent", "month"}, []string{"cases"})
	rows := []struct {
		cont, month string
		cases       float64
	}{
		{"Africa", "4", 31598}, {"Africa", "5", 92626},
		{"America", "4", 1104862}, {"America", "5", 1404912},
		{"Asia", "4", 333821}, {"Asia", "5", 537584},
		{"Europe", "4", 863874}, {"Europe", "5", 608110},
		{"Oceania", "4", 2812}, {"Oceania", "5", 467},
	}
	for _, r := range rows {
		b.AddRow([]string{r.cont, r.month}, []float64{r.cases})
	}
	return b.Build()
}

func TestSupportsPaperExample(t *testing.T) {
	rel := covidRelation()
	v4, _ := rel.CodeOf(1, "4")
	v5, _ := rel.CodeOf(1, "5")
	cube, err := engine.BuildCube(context.Background(), rel, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Insight of Figure 3: avg(May) > avg(April), i.e. val=5 side greater.
	res := engine.CompareFromCube(cube, 0, 1, v5, v4, 0, engine.Sum)
	if !Supports(res, MeanGreater) {
		t.Error("May-vs-April mean-greater insight should be supported at the continent level")
	}
	// Reverse orientation must not be supported.
	rev := engine.CompareFromCube(cube, 0, 1, v4, v5, 0, engine.Sum)
	if Supports(rev, MeanGreater) {
		t.Error("April-vs-May mean-greater should not be supported")
	}
}

func TestSupportsVariance(t *testing.T) {
	b := table.NewBuilder("r", []string{"g", "s"}, []string{"m"})
	// Side "wide" has spread-out group aggregates, side "narrow" does not.
	vals := map[string][]float64{"wide": {0, 100, 200, 300}, "narrow": {49, 50, 51, 52}}
	for side, vs := range vals {
		for gi, v := range vs {
			b.AddRow([]string{string(rune('a' + gi)), side}, []float64{v})
		}
	}
	rel := b.Build()
	w, _ := rel.CodeOf(1, "wide")
	n, _ := rel.CodeOf(1, "narrow")
	res := engine.CompareDirect(rel, 0, 1, w, n, 0, engine.Sum)
	if !Supports(res, VarianceGreater) {
		t.Error("wide side should have greater variance")
	}
	if Supports(engine.CompareDirect(rel, 0, 1, n, w, 0, engine.Sum), VarianceGreater) {
		t.Error("narrow side should not have greater variance")
	}
}

func TestSupportsEmptyResult(t *testing.T) {
	res := &engine.ComparisonResult{}
	if Supports(res, MeanGreater) || Supports(res, VarianceGreater) {
		t.Error("empty result must support nothing")
	}
}

func TestSupportsSingleRowVariance(t *testing.T) {
	res := &engine.ComparisonResult{Groups: []int32{0}, Left: []float64{5}, Right: []float64{1}}
	if Supports(res, VarianceGreater) {
		t.Error("single-row variance comparison is undefined and must not support")
	}
	if !Supports(res, MeanGreater) {
		t.Error("single-row mean comparison is fine")
	}
}

// TestCountLemmas checks Lemma 3.2 and 3.5 against a hand computation and
// against the paper's Vaccine row of Table 2 shape.
func TestCountLemmas(t *testing.T) {
	rel := covidRelation() // n=2, doms {5, 2}, m=1
	// Lemma 3.2 with f aggregates: [C(5,2) + C(2,2)] × (n−1) × m × f.
	f := len(engine.AllAggs)
	want := (10 + 1) * 1 * 1 * f
	if got := CountComparisonQueries(rel, f); got != want {
		t.Errorf("CountComparisonQueries = %d, want %d", got, want)
	}
	// Lemma 3.5 with T types: [C(5,2) + C(2,2)] × m × T.
	if got := CountInsights(rel, len(AllTypes)); got != 11*1*2 {
		t.Errorf("CountInsights = %d, want 22", got)
	}
}

func TestInsightDescribe(t *testing.T) {
	rel := covidRelation()
	v4, _ := rel.CodeOf(1, "4")
	v5, _ := rel.CodeOf(1, "5")
	i := Insight{Meas: 0, Attr: 1, Val: v5, Val2: v4, Type: MeanGreater, Sig: 0.99, Credibility: 1, NumHypo: 1}
	d := i.Describe(rel)
	for _, want := range []string{"average cases", "month = 5", "month = 4", "0.990", "1/1"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
}

func TestQueryDescribe(t *testing.T) {
	rel := covidRelation()
	v4, _ := rel.CodeOf(1, "4")
	v5, _ := rel.CodeOf(1, "5")
	q := Query{GroupBy: 0, Attr: 1, Val: v4, Val2: v5, Meas: 0, Agg: engine.Sum}
	d := q.Describe(rel)
	if !strings.Contains(d, "sum(cases) by continent") || !strings.Contains(d, "month = 4 vs 5") {
		t.Errorf("Describe() = %q", d)
	}
}

func TestInsightKey(t *testing.T) {
	a := Insight{Meas: 1, Attr: 2, Val: 3, Val2: 4, Type: VarianceGreater, Sig: 0.9}
	b := Insight{Meas: 1, Attr: 2, Val: 3, Val2: 4, Type: VarianceGreater, Sig: 0.5, Credibility: 7}
	if a.Key() != b.Key() {
		t.Error("keys must ignore statistics")
	}
	c := Insight{Meas: 1, Attr: 2, Val: 4, Val2: 3, Type: VarianceGreater}
	if a.Key() == c.Key() {
		t.Error("orientation must be part of the key")
	}
}

func TestTypeStrings(t *testing.T) {
	if MeanGreater.String() != "mean greater" || VarianceGreater.String() != "variance greater" {
		t.Error("type names wrong")
	}
}
