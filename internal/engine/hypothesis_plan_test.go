package engine_test

import (
	"testing"

	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/stats"
)

// seriesPredicate is the σ_p of an insight type's hypothesis query
// (Def. 3.7) over the two comparison series, for the literal
// engine.HypothesisPlan oracle.
func seriesPredicate(t insight.Type) engine.SeriesPredicate {
	switch t {
	case insight.MeanGreater:
		return engine.SeriesPredicate{
			Desc: "avg(left) > avg(right)",
			Holds: func(l, r []float64) bool {
				return len(l) > 0 && stats.Mean(l) > stats.Mean(r)
			},
		}
	case insight.VarianceGreater:
		return engine.SeriesPredicate{
			Desc: "var_samp(left) > var_samp(right)",
			Holds: func(l, r []float64) bool {
				return len(l) >= 2 && stats.Variance(l) > stats.Variance(r)
			},
		}
	default:
		return engine.SeriesPredicate{
			Desc: "median(left) > median(right)",
			Holds: func(l, r []float64) bool {
				return len(l) > 0 && stats.Median(l) > stats.Median(r)
			},
		}
	}
}

// TestHypothesisPlanMatchesSupports: the literal Def. 3.7 operator tree
// must emit a row exactly when the support relation ⊢ holds.
func TestHypothesisPlanMatchesSupports(t *testing.T) {
	rel := engine.CovidRelation()
	v4, _ := rel.CodeOf(1, "4")
	v5, _ := rel.CodeOf(1, "5")
	for _, typ := range insight.ExtendedTypes {
		for _, pair := range [][2]int32{{v5, v4}, {v4, v5}} {
			plan := engine.HypothesisPlan(rel, 0, 1, pair[0], pair[1], 0, engine.Sum,
				seriesPredicate(typ), typ.String())
			rows, err := plan.Run()
			if err != nil {
				t.Fatal(err)
			}
			res := engine.CompareDirect(rel, 0, 1, pair[0], pair[1], 0, engine.Sum)
			want := insight.Supports(res, typ)
			if got := rows.N == 1; got != want {
				t.Errorf("%v %v: plan emits=%v, Supports=%v", typ, pair, got, want)
			}
			if rows.N == 1 && rows.Strs[0][0] != typ.String() {
				t.Errorf("label = %q", rows.Strs[0][0])
			}
		}
	}
}
