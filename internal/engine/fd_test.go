package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// FDError is the per-direction reference for DetectFDs: the g3 error of
// det → dep, 1 − (Σ over det values of the most common dep
// value's count) / N, from a map over the code pairs of every row. An
// empty relation has error 0, and a dependency holds exactly when its
// error is 0.
func FDError(rel *table.Relation, det, dep int) float64 {
	nRows := rel.NumRows()
	if nRows == 0 {
		return 0
	}
	detCol := rel.CatCol(det)
	depCol := rel.CatCol(dep)
	// counts[(d, e)] over a compact composite key.
	depDom := int64(rel.DomSize(dep))
	counts := make(map[int64]int)
	for row, d := range detCol {
		counts[int64(d)*depDom+int64(depCol[row])]++
	}
	best := make(map[int32]int, rel.DomSize(det))
	for key, c := range counts {
		d := int32(key / depDom)
		if c > best[d] {
			best[d] = c
		}
	}
	keep := 0
	for _, c := range best {
		keep += c
	}
	return 1 - float64(keep)/float64(nRows)
}

// detectFDsReference is DetectFDs by the per-direction oracle: one
// FDError map per ordered attribute pair.
func detectFDsReference(rel *table.Relation) []FD {
	n := rel.NumCatAttrs()
	var fds []FD
	for det := 0; det < n; det++ {
		for dep := 0; dep < n; dep++ {
			if det != dep && FDError(rel, det, dep) == 0 {
				fds = append(fds, FD{Det: det, Dep: dep})
			}
		}
	}
	return fds
}

// fdRelation draws rows over attributes of the given domain sizes. Each
// attribute after the first copies a function of the first attribute's
// value on all but a `noise` share of rows, so the relation holds exact,
// approximate and absent dependencies.
func fdRelation(rng *rand.Rand, rows int, domains []int, noise float64) *table.Relation {
	names := make([]string, len(domains))
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	b := table.NewBuilder("fd", names, nil)
	row := make([]string, len(domains))
	for r := 0; r < rows; r++ {
		base := rng.Intn(domains[0])
		for a, d := range domains {
			v := base % d
			if a == 0 || rng.Float64() < noise {
				v = rng.Intn(d)
			}
			row[a] = fmt.Sprintf("v%d", v)
		}
		b.AddRow(row, nil)
	}
	return b.Build()
}

// TestDetectFDsMatchesFDError checks the one-count-per-pair detection
// against the per-direction oracle: the same FDs, in the same order, in
// both count regimes and on one-row and empty relations.
func TestDetectFDsMatchesFDError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type tc struct {
		name string
		rel  *table.Relation
	}
	cases := []tc{
		{"empty", fdRelation(rng, 0, []int{3, 2}, 0)},
		{"one-row", fdRelation(rng, 1, []int{4, 3, 2}, 0)},
	}
	for i := 0; i < 12; i++ {
		// Small domains: every pair takes the dense table.
		cases = append(cases, tc{fmt.Sprintf("dense-%d", i), fdRelation(rng, 50+rng.Intn(400), []int{8, 4, 2, 6, 3}, 0.02*float64(i%4))})
	}
	for i := 0; i < 6; i++ {
		// 60 × 40 codes exceed the rows: that pair takes the map.
		cases = append(cases, tc{fmt.Sprintf("map-%d", i), fdRelation(rng, 200+rng.Intn(600), []int{60, 40, 4, 2}, 0.05*float64(i%3))})
	}
	for _, c := range cases {
		got, want := DetectFDs(c.rel), detectFDsReference(c.rel)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: %v, oracle %v", c.name, got, want)
		}
		n := c.rel.NumCatAttrs()
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				ab, ba := pairFDs(c.rel, a, b)
				wantAB, wantBA := FDError(c.rel, a, b) == 0, FDError(c.rel, b, a) == 0
				if ab != wantAB || ba != wantBA {
					t.Errorf("%s (%d, %d): holds (%v, %v), oracle (%v, %v)", c.name, a, b, ab, ba, wantAB, wantBA)
				}
			}
		}
	}
	if got := len(DetectFDs(cases[0].rel)); got != 2 {
		t.Errorf("empty relation: %d FDs, want both directions", got)
	}
}

// dateRelation has day → month (every day belongs to one month) but not
// month → day.
func dateRelation() *table.Relation {
	b := table.NewBuilder("dates", []string{"day", "month", "city"}, nil)
	rows := [][3]string{
		{"2021-04-01", "4", "Paris"},
		{"2021-04-02", "4", "Tours"},
		{"2021-04-02", "4", "Paris"},
		{"2021-05-01", "5", "Paris"},
		{"2021-05-02", "5", "Blois"},
	}
	for _, r := range rows {
		b.AddRow(r[:], nil)
	}
	return b.Build()
}

func TestDetectFDs(t *testing.T) {
	rel := dateRelation()
	fds := DetectFDs(rel)
	want := map[FD]bool{{Det: 0, Dep: 1}: true}
	got := map[FD]bool{}
	for _, fd := range fds {
		got[fd] = true
	}
	if !got[FD{Det: 0, Dep: 1}] {
		t.Errorf("day→month not detected; got %v", fds)
	}
	if got[FD{Det: 1, Dep: 0}] {
		t.Error("month→day should not hold")
	}
	if got[FD{Det: 2, Dep: 0}] || got[FD{Det: 0, Dep: 2}] {
		t.Error("city/day dependency should not hold")
	}
	_ = want
}

func TestFDSetMeaninglessPair(t *testing.T) {
	rel := dateRelation()
	s := NewFDSet(DetectFDs(rel))
	if !s.MeaninglessPair(0, 1) {
		t.Error("grouping by day while selecting months should be meaningless")
	}
	if !s.MeaninglessPair(1, 0) {
		t.Error("grouping by month while selecting days should be meaningless")
	}
	if s.MeaninglessPair(2, 1) {
		t.Error("city/month pair should be fine")
	}
}

func TestFDOnConstantColumn(t *testing.T) {
	b := table.NewBuilder("r", []string{"const", "x"}, nil)
	b.AddRow([]string{"k", "a"}, nil)
	b.AddRow([]string{"k", "b"}, nil)
	rel := b.Build()
	s := NewFDSet(DetectFDs(rel))
	// x → const holds trivially (const has one value), so the pair is
	// meaningless in both grouping directions.
	if !s.MeaninglessPair(0, 1) || !s.MeaninglessPair(1, 0) {
		t.Error("constant column should induce an FD with every attribute")
	}
}

func TestFDErrorAndApprox(t *testing.T) {
	b := table.NewBuilder("dirty", []string{"commune", "dept"}, nil)
	// 96 clean rows: commune determines dept…
	for i := 0; i < 96; i++ {
		b.AddRow([]string{string(rune('A' + i%8)), string(rune('a' + i%8/2))}, nil)
	}
	// …plus 4 dirty rows breaking the dependency.
	for i := 0; i < 4; i++ {
		b.AddRow([]string{"A", string(rune('z' - i))}, nil)
	}
	rel := b.Build()
	errG3 := FDError(rel, 0, 1)
	if errG3 <= 0 || errG3 > 0.05 {
		t.Fatalf("g3 error = %v, want (0, 0.05] for 4 dirty of 100", errG3)
	}
	if NewFDSet(DetectFDs(rel)).MeaninglessPair(0, 1) {
		t.Error("detection should reject the dirty FD")
	}
}

func TestFDErrorExactIsZero(t *testing.T) {
	rel := dateRelation()
	if got := FDError(rel, 0, 1); got != 0 {
		t.Errorf("exact FD g3 error = %v, want 0", got)
	}
	if got := FDError(rel, 1, 0); got <= 0 {
		t.Errorf("non-FD g3 error = %v, want > 0", got)
	}
}
