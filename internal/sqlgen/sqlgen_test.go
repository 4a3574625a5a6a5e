package sqlgen

import (
	"strings"
	"testing"

	"comparenb/internal/engine"
	"comparenb/internal/table"
)

func covidRelation(t *testing.T) *table.Relation {
	t.Helper()
	b := table.NewBuilder("covid", []string{"continent", "month"}, []string{"cases"})
	b.AddRow([]string{"Africa", "4"}, []float64{31598})
	b.AddRow([]string{"Africa", "5"}, []float64{92626})
	return b.Build()
}

func paperParams(t *testing.T, rel *table.Relation) Params {
	t.Helper()
	v4, _ := rel.CodeOf(1, "4")
	v5, _ := rel.CodeOf(1, "5")
	return Params{GroupBy: 0, SelAttr: 1, Val: v4, Val2: v5, Meas: 0, Agg: engine.Sum}
}

func TestComparisonMatchesFigure2Shape(t *testing.T) {
	rel := covidRelation(t)
	sql := Comparison(rel, paperParams(t, rel))
	for _, want := range []string{
		"select t1.continent, v_4, v_5",
		"sum(cases) as v_4",
		"from covid where month = '4' group by month, continent) t1,",
		"from covid where month = '5' group by month, continent) t2",
		"where t1.continent = t2.continent",
		"order by t1.continent;",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("comparison SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestHypothesisMatchesFigure3Shape(t *testing.T) {
	rel := covidRelation(t)
	sql := Hypothesis(rel, paperParams(t, rel), MeanGreater)
	for _, want := range []string{
		"with comparison as",
		"select 'mean greater' as hypothesis from comparison",
		"having avg(v_4) > avg(v_5);",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("hypothesis SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestHypothesisVariance(t *testing.T) {
	rel := covidRelation(t)
	sql := Hypothesis(rel, paperParams(t, rel), VarianceGreater)
	if !strings.Contains(sql, "having var_samp(v_4) > var_samp(v_5);") {
		t.Errorf("variance hypothesis SQL wrong:\n%s", sql)
	}
	if !strings.Contains(sql, "'variance greater' as hypothesis") {
		t.Errorf("variance label missing:\n%s", sql)
	}
}

func TestCountAggregateUsesStar(t *testing.T) {
	rel := covidRelation(t)
	p := paperParams(t, rel)
	p.Agg = engine.Count
	sql := Comparison(rel, p)
	if !strings.Contains(sql, "count(*) as v_4") {
		t.Errorf("count SQL wrong:\n%s", sql)
	}
}

func TestQuotingValuesWithQuotes(t *testing.T) {
	b := table.NewBuilder("t", []string{"who"}, []string{"m"})
	b.AddRow([]string{"O'Brien"}, []float64{1})
	b.AddRow([]string{"Smith"}, []float64{2})
	rel := b.Build()
	v1, _ := rel.CodeOf(0, "O'Brien")
	v2, _ := rel.CodeOf(0, "Smith")
	sql := Comparison(rel, Params{GroupBy: 0, SelAttr: 0, Val: v1, Val2: v2, Meas: 0, Agg: engine.Avg})
	if !strings.Contains(sql, "'O''Brien'") {
		t.Errorf("single quote not escaped:\n%s", sql)
	}
}

// TestCollidingAliasesGetSideTags: a selection value's alias must not
// project the same name, ignoring case, as the other side's alias or as
// the grouping or selection attribute, which SQL rejects as ambiguous;
// distinct aliases stay untagged.
func TestCollidingAliasesGetSideTags(t *testing.T) {
	b := table.NewBuilder("t", []string{"g", "city"}, []string{"m"})
	for _, v := range []string{"a-b", "a_b", "1", "v_1", "Paris", "paris", "Lyon", "G", "city"} {
		b.AddRow([]string{"x", v}, []float64{1})
	}
	rel := b.Build()
	cases := []struct{ v1, v2, c1, c2 string }{
		{"a-b", "a_b", "a_b_l", "a_b_r"},
		{"1", "v_1", "v_1_l", "v_1_r"},
		{"Paris", "paris", "Paris_l", "paris_r"},
		{"Paris", "Lyon", "Paris", "Lyon"},
		{"G", "Lyon", "G_l", "Lyon_r"},         // A's name
		{"Paris", "city", "Paris_l", "city_r"}, // B's name
	}
	for _, c := range cases {
		v1, _ := rel.CodeOf(1, c.v1)
		v2, _ := rel.CodeOf(1, c.v2)
		p := Params{GroupBy: 0, SelAttr: 1, Val: v1, Val2: v2, Meas: 0, Agg: engine.Sum}
		cmp := Comparison(rel, p)
		for _, want := range []string{
			"select t1.g, " + c.c1 + ", " + c.c2 + "\n",
			"sum(m) as " + c.c1 + "\n",
			"sum(m) as " + c.c2 + "\n",
		} {
			if !strings.Contains(cmp, want) {
				t.Errorf("%s vs %s: comparison SQL missing %q:\n%s", c.v1, c.v2, want, cmp)
			}
		}
		hyp := Hypothesis(rel, p, MeanGreater)
		for _, want := range []string{
			"select t1.g, " + c.c1 + ", " + c.c2 + "\n",
			"having avg(" + c.c1 + ") > avg(" + c.c2 + ");",
		} {
			if !strings.Contains(hyp, want) {
				t.Errorf("%s vs %s: hypothesis SQL missing %q:\n%s", c.v1, c.v2, want, hyp)
			}
		}
	}
}

func TestQuoteIdent(t *testing.T) {
	cases := map[string]string{
		"continent":  "continent",
		"cat_attr":   "cat_attr",
		"Mixed":      `"Mixed"`,
		"with space": `"with space"`,
		"has\"quote": `"has""quote"`,
		"2cols":      `"2cols"`,
		"":           `""`,
	}
	for in, want := range cases {
		if got := quoteIdent(in); got != want {
			t.Errorf("quoteIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSanitizeIdent(t *testing.T) {
	cases := map[string]string{
		"April":    "April",
		"4":        "v_4",
		"North-Am": "North_Am",
		"a b":      "a_b",
	}
	for in, want := range cases {
		if got := sanitizeIdent(in); got != want {
			t.Errorf("sanitizeIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHypothesisLabel(t *testing.T) {
	if MeanGreater.Label() != "mean greater" || VarianceGreater.Label() != "variance greater" {
		t.Error("labels wrong")
	}
}
