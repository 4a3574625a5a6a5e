package engine

import (
	"fmt"
	"testing"

	"comparenb/internal/table"
)

// wideRelation has enough attributes × domain sizes that the mixed-radix
// composite key overflows uint64, forcing the string-key fallback.
func wideRelation(t *testing.T) *table.Relation {
	t.Helper()
	const nAttr = 11
	names := make([]string, nAttr)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	b := table.NewBuilder("wide", names, []string{"m"})
	cats := make([]string, nAttr)
	// 100 rows; every attribute sees 97 distinct values, so the code
	// space is 97^11 ≫ 2^63.
	for r := 0; r < 100; r++ {
		for a := range cats {
			cats[a] = fmt.Sprintf("v%d", (r+a)%97)
		}
		b.AddRow(cats, []float64{float64(r)})
	}
	rel := b.Build()
	attrs := make([]int, nAttr)
	prod := 1.0
	for i := range attrs {
		attrs[i] = i
		prod *= float64(rel.DomSize(i))
	}
	if prod < 1e19 {
		t.Fatalf("test premise broken: code space %.3g does not overflow uint64", prod)
	}
	if newKeySpace(rel, attrs).radix != nil {
		t.Fatal("mixed radix unexpectedly fits; fallback not exercised")
	}
	return rel
}

func TestBuildCubeStringKeyFallback(t *testing.T) {
	rel := wideRelation(t)
	attrs := make([]int, rel.NumCatAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	c := mustBuildCube(t, rel, attrs, 1)
	want := referenceBuildCube(rel, attrs)
	requireMatchesReference(t, "string keys", want, c)
	requireMatchesReference(t, "string keys, encoded", want, mustBuildView(t, rel, rel.Encoded(), attrs, 1))
	// Every row has a distinct composite key by construction? Not
	// necessarily — but group count must match the exact distinct count.
	if got, want := c.NumGroups(), CountGroups(rel, attrs); got != want {
		t.Errorf("fallback cube groups = %d, distinct count = %d", got, want)
	}
	if c.SourceRows != 100 {
		t.Errorf("SourceRows = %d", c.SourceRows)
	}
	// Rolling the wide cube down to two attributes must agree with a
	// direct cube (the rollup also runs through the radix/fallback choice).
	up := c.Rollup([]int{0, 10})
	direct := mustBuildCube(t, rel, []int{0, 10}, 1)
	if up.NumGroups() != direct.NumGroups() {
		t.Errorf("rollup groups = %d, direct = %d", up.NumGroups(), direct.NumGroups())
	}
	// Sum of counts is preserved.
	var total int64
	for g := 0; g < up.NumGroups(); g++ {
		total += up.Count(g)
	}
	if total != 100 {
		t.Errorf("rollup total count = %d, want 100", total)
	}
}

func TestEstimateGroupsFallbackPath(t *testing.T) {
	rel := wideRelation(t)
	attrs := make([]int, rel.NumCatAttrs())
	for i := range attrs {
		attrs[i] = i
	}
	if got, want := CountGroups(rel, attrs), mustBuildCube(t, rel, attrs, 1).NumGroups(); got != want {
		t.Errorf("CountGroups fallback = %d, cube = %d", got, want)
	}
}
