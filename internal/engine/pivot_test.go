package engine

import (
	"math"
	"testing"

	"comparenb/internal/table"
)

// TestPivotMatchesDirect: the §3.1 alternative (single group-by + pivot)
// must produce exactly the join-form result.
func TestPivotMatchesDirect(t *testing.T) {
	rel := randomRelation(3, []int{5, 4, 6}, 2, 900, 31)
	for attrA := 0; attrA < 3; attrA++ {
		for attrB := 0; attrB < 3; attrB++ {
			if attrA == attrB {
				continue
			}
			dom := rel.SortedDomain(attrB)
			for _, agg := range AllAggs {
				a := ComparePivot(rel, attrA, attrB, dom[0], dom[1], 1, agg)
				b := CompareDirect(rel, attrA, attrB, dom[0], dom[1], 1, agg)
				if a.Len() != b.Len() {
					t.Fatalf("A=%d B=%d %s: pivot %d rows, direct %d", attrA, attrB, agg, a.Len(), b.Len())
				}
				for i := range a.Groups {
					if a.Groups[i] != b.Groups[i] ||
						math.Abs(a.Left[i]-b.Left[i]) > 1e-9*(1+math.Abs(b.Left[i])) ||
						math.Abs(a.Right[i]-b.Right[i]) > 1e-9*(1+math.Abs(b.Right[i])) {
						t.Errorf("A=%d B=%d %s row %d: pivot (%v,%v) direct (%v,%v)",
							attrA, attrB, agg, i, a.Left[i], a.Right[i], b.Left[i], b.Right[i])
					}
				}
			}
		}
	}
}

func TestPivotSelfComparison(t *testing.T) {
	rel := covidRelation()
	dom := rel.SortedDomain(1)
	res := ComparePivot(rel, 0, 1, dom[0], dom[0], 0, Sum)
	if res.Len() != 5 {
		t.Fatalf("self comparison rows = %d, want 5", res.Len())
	}
	for i := range res.Left {
		if res.Left[i] != res.Right[i] {
			t.Errorf("row %d differs in self comparison", i)
		}
	}
}

// BenchmarkCompareJoinForm / PivotForm reproduce the §3.1 cost comparison:
// the two plans should be in the same ballpark.
func BenchmarkCompareJoinForm(b *testing.B) {
	rel := randomRelation(4, []int{8, 10, 6, 12}, 2, 50000, 7)
	dom := rel.SortedDomain(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareDirect(rel, 0, 1, dom[0], dom[1], 0, Sum)
	}
}

func BenchmarkComparePivotForm(b *testing.B) {
	rel := randomRelation(4, []int{8, 10, 6, 12}, 2, 50000, 7)
	dom := rel.SortedDomain(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComparePivot(rel, 0, 1, dom[0], dom[1], 0, Sum)
	}
}

// ComparePivot evaluates the comparison query with the alternative plan of
// §3.1: a single scan computing γ_{A,B,agg(M)}(σ_{B=val ∨ B=val'}(R))
// followed by a pivot to the two-column tabular form. The paper found the
// two forms "similar in terms of execution cost" [12]; CompareDirect and
// ComparePivot let the benchmarks check that claim on this engine.
func ComparePivot(rel *table.Relation, attrA, attrB int, val, val2 int32, meas int, agg Agg) *ComparisonResult {
	colA := rel.CatCol(attrA)
	colB := rel.CatCol(attrB)
	mcol := rel.MeasCol(meas)
	type state struct {
		count    int64
		sum      float64
		min, max float64
	}
	// One grouped pass over (A, side); side 0 = val, side 1 = val'.
	states := make(map[[2]int32]*state)
	for i, b := range colB {
		var side int32
		switch b {
		case val:
			side = 0
		case val2:
			side = 1
		default:
			continue
		}
		k := [2]int32{colA[i], side}
		s := states[k]
		if s == nil {
			s = &state{min: math.NaN(), max: math.NaN()}
			states[k] = s
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
	if val == val2 {
		// A single selection matches both sides; mirror it.
		for k, s := range states {
			if k[1] == 0 {
				states[[2]int32{k[0], 1}] = s
			}
		}
	}
	// Pivot: one output row per A value present on both sides.
	finalize := func(s *state) float64 {
		switch agg {
		case Sum:
			return s.sum
		case Avg:
			return s.sum / float64(s.count)
		case Min:
			return s.min
		case Max:
			return s.max
		case Count:
			return float64(s.count)
		default:
			//nolint:nopanic // exhaustive switch over the Agg enum; a new value is a programming error every test hits immediately
			panic("engine: bad agg")
		}
	}
	left := make(map[int32]float64)
	right := make(map[int32]float64)
	for k, s := range states {
		if k[1] == 0 {
			left[k[0]] = finalize(s)
		} else {
			right[k[0]] = finalize(s)
		}
	}
	return joinSeries(rel, attrA, left, right)
}
