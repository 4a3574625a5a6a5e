package engine

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// covidRelation mirrors the paper's running example (Figure 2): COVID cases
// by continent and month.
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

func TestBuildCubeGroups(t *testing.T) {
	rel := covidRelation()
	c := mustBuildCube(t, rel, []int{0, 1}, 1)
	if c.NumGroups() != 10 {
		t.Errorf("NumGroups = %d, want 10", c.NumGroups())
	}
	if c.SourceRows != 10 {
		t.Errorf("SourceRows = %d, want 10", c.SourceRows)
	}
}

func TestCubeValueAggregates(t *testing.T) {
	b := table.NewBuilder("r", []string{"g"}, []string{"m"})
	for _, v := range []float64{1, 2, 3} {
		b.AddRow([]string{"x"}, []float64{v})
	}
	b.AddRow([]string{"y"}, []float64{10})
	rel := b.Build()
	c := mustBuildCube(t, rel, []int{0}, 1)
	var gx = -1
	for g := 0; g < c.NumGroups(); g++ {
		if rel.Value(0, c.GroupKey(g)[0]) == "x" {
			gx = g
		}
	}
	if gx < 0 {
		t.Fatal("group x not found")
	}
	checks := []struct {
		agg  Agg
		want float64
	}{{Sum, 6}, {Avg, 2}, {Min, 1}, {Max, 3}, {Count, 3}}
	for _, ck := range checks {
		if got := c.Value(gx, 0, ck.agg); got != ck.want {
			t.Errorf("%s(x) = %v, want %v", ck.agg, got, ck.want)
		}
	}
}

func TestCubeNaNHandling(t *testing.T) {
	b := table.NewBuilder("r", []string{"g"}, []string{"m"})
	b.AddRow([]string{"x"}, []float64{math.NaN()})
	b.AddRow([]string{"x"}, []float64{5})
	b.AddRow([]string{"z"}, []float64{math.NaN()})
	rel := b.Build()
	c := mustBuildCube(t, rel, []int{0}, 1)
	for g := 0; g < c.NumGroups(); g++ {
		switch rel.Value(0, c.GroupKey(g)[0]) {
		case "x":
			if got := c.Value(g, 0, Sum); got != 5 {
				t.Errorf("Sum(x) = %v, want 5 (NaN ignored)", got)
			}
			if got := c.Value(g, 0, Count); got != 2 {
				t.Errorf("Count(x) = %v, want 2 (NaN rows still counted)", got)
			}
			if got := c.Value(g, 0, Min); got != 5 {
				t.Errorf("Min(x) = %v, want 5", got)
			}
		case "z":
			if got := c.Value(g, 0, Min); !math.IsNaN(got) {
				t.Errorf("Min(all-NaN group) = %v, want NaN", got)
			}
		}
	}
}

func TestRollupMatchesDirectCube(t *testing.T) {
	rel := randomRelation(3, []int{4, 5, 3}, 2, 500, 11)
	wide := mustBuildCube(t, rel, []int{0, 1, 2}, 1)
	for _, attrs := range [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}} {
		up := wide.Rollup(attrs)
		direct := mustBuildCube(t, rel, attrs, 1)
		if up.NumGroups() != direct.NumGroups() {
			t.Fatalf("Rollup(%v) groups = %d, direct = %d", attrs, up.NumGroups(), direct.NumGroups())
		}
		// Compare group-by-group via key lookup.
		type key [3]int32
		index := make(map[key]int)
		for g := 0; g < direct.NumGroups(); g++ {
			var k key
			copy(k[:], direct.GroupKey(g))
			index[k] = g
		}
		for g := 0; g < up.NumGroups(); g++ {
			var k key
			copy(k[:], up.GroupKey(g))
			dg, ok := index[k]
			if !ok {
				t.Fatalf("Rollup(%v) produced unknown group %v", attrs, up.GroupKey(g))
			}
			for m := 0; m < rel.NumMeasures(); m++ {
				for _, agg := range AllAggs {
					a, b := up.Value(g, m, agg), direct.Value(dg, m, agg)
					if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
						t.Errorf("Rollup(%v) %s(m%d) group %v = %v, direct %v", attrs, agg, m, up.GroupKey(g), a, b)
					}
				}
			}
		}
	}
}

func TestRollupPanicsOnBadAttr(t *testing.T) {
	rel := covidRelation()
	c := mustBuildCube(t, rel, []int{0}, 1)
	defer func() {
		if recover() == nil {
			t.Error("Rollup with attribute outside cube did not panic")
		}
	}()
	c.Rollup([]int{1})
}

func TestBuildCubeDuplicateAttrPanics(t *testing.T) {
	rel := covidRelation()
	defer func() {
		if recover() == nil {
			t.Error("BuildCube with duplicate attrs did not panic")
		}
	}()
	mustBuildCube(t, rel, []int{0, 0}, 1)
}

func TestMemoryFootprintGrowsWithGroups(t *testing.T) {
	rel := randomRelation(2, []int{10, 10}, 1, 2000, 3)
	small := mustBuildCube(t, rel, []int{0}, 1)
	big := mustBuildCube(t, rel, []int{0, 1}, 1)
	if small.MemoryFootprint() >= big.MemoryFootprint() {
		t.Errorf("footprint(1 attr)=%d >= footprint(2 attrs)=%d", small.MemoryFootprint(), big.MemoryFootprint())
	}
}

// randomRelation builds a relation with the given categorical domain sizes
// and uniform random measures; used across engine tests.
func randomRelation(ncat int, domSizes []int, nmeas, rows int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	catNames := make([]string, ncat)
	for i := range catNames {
		catNames[i] = string(rune('A' + i))
	}
	measNames := make([]string, nmeas)
	for i := range measNames {
		measNames[i] = "m" + string(rune('0'+i))
	}
	b := table.NewBuilder("rand", catNames, measNames)
	cats := make([]string, ncat)
	meas := make([]float64, nmeas)
	for r := 0; r < rows; r++ {
		for a := 0; a < ncat; a++ {
			cats[a] = catNames[a] + "_" + string(rune('a'+rng.Intn(domSizes[a])))
		}
		for m := 0; m < nmeas; m++ {
			meas[m] = rng.Float64() * 100
		}
		b.AddRow(cats, meas)
	}
	return b.Build()
}

// mustBuildCube is BuildCube under a context that never cancels.
func mustBuildCube(tb testing.TB, rel *table.Relation, attrs []int, threads int) *Cube {
	tb.Helper()
	c, err := BuildCube(context.Background(), rel, attrs, threads)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mustGetOrBuild is cc.GetOrBuild at threads=1 under a context that never
// cancels.
func mustGetOrBuild(tb testing.TB, cc *CubeCache, rel *table.Relation, attrs []int) *Cube {
	tb.Helper()
	c, err := cc.GetOrBuild(context.Background(), rel, attrs, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// mustBuildThrough is cc.BuildThrough at threads=1 under a context that
// never cancels.
func mustBuildThrough(tb testing.TB, cc *CubeCache, rel *table.Relation, attrs []int) *Cube {
	tb.Helper()
	c, err := cc.BuildThrough(context.Background(), rel, attrs, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}
