package pipeline

import (
	"math"
	"testing"

	"comparenb/internal/table"
)

// TestConstantMeasureFindsNothing: a constant measure can never yield a
// significant comparison; the pipeline must return an empty (not broken)
// result.
func TestConstantMeasureFindsNothing(t *testing.T) {
	b := table.NewBuilder("const", []string{"a", "b", "c"}, []string{"m"})
	for i := 0; i < 300; i++ {
		b.AddRow([]string{
			string(rune('a' + i%3)),
			string(rune('a' + i%4)),
			string(rune('a' + i%5)),
		}, []float64{42})
	}
	res, err := Generate(b.Build(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.SignificantInsights != 0 {
		t.Errorf("constant measure produced %d insights", res.Counts.SignificantInsights)
	}
	if len(res.Solution.Order) != 0 {
		t.Errorf("constant measure produced a %d-query notebook", len(res.Solution.Order))
	}
	nb := BuildNotebook(res)
	if nb.NumQueries() != 0 {
		t.Error("notebook should be empty")
	}
}

// TestAllNaNMeasure: a measure that is entirely NaN (e.g. an unparseable
// CSV column forced numeric) must be skipped without panics.
func TestAllNaNMeasure(t *testing.T) {
	b := table.NewBuilder("nan", []string{"a", "b", "c"}, []string{"bad", "good"})
	for i := 0; i < 400; i++ {
		good := float64(i % 3 * 50)
		b.AddRow([]string{
			string(rune('a' + i%3)),
			string(rune('a' + i%4)),
			string(rune('a' + i%2)),
		}, []float64{math.NaN(), good})
	}
	res, err := Generate(b.Build(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range res.Insights {
		if ins.Meas == 0 {
			t.Errorf("insight found on the all-NaN measure: %+v", ins)
		}
	}
	if res.Counts.SignificantInsights == 0 {
		t.Error("the good measure's planted pattern was missed")
	}
}

// TestPartialNaNMeasure: NaN cells force per-measure permutations (the
// shared-permutation fast path must detect the differing pool sizes).
func TestPartialNaNMeasure(t *testing.T) {
	b := table.NewBuilder("seminan", []string{"a", "b", "c"}, []string{"m1", "m2"})
	for i := 0; i < 500; i++ {
		m1 := float64(i%3) * 40
		m2 := float64(i%3) * 40
		if i%7 == 0 {
			m2 = math.NaN()
		}
		b.AddRow([]string{
			string(rune('a' + i%3)),
			string(rune('a' + i%4)),
			string(rune('a' + i%2)),
		}, []float64{m1, m2})
	}
	res, err := Generate(b.Build(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2Found := false
	for _, ins := range res.Insights {
		if ins.Meas == 1 {
			m2Found = true
		}
	}
	if !m2Found {
		t.Error("NaN-diluted measure lost all its insights")
	}
}

// TestFullyDependentAttributes: if every attribute pair is related by an
// FD, no valid grouping exists and the result must be empty, not a panic.
func TestFullyDependentAttributes(t *testing.T) {
	b := table.NewBuilder("fd", []string{"day", "month", "quarter"}, []string{"m"})
	for i := 0; i < 200; i++ {
		day := i % 12
		b.AddRow([]string{
			string(rune('a' + day)),
			string(rune('a' + day/2)), // day → month, 6 values
			string(rune('a' + day/4)), // month → quarter, 3 values
		}, []float64{float64(day * 10)})
	}
	res, err := Generate(b.Build(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// day→month→quarter chains leave no (A, B) pair without an FD:
	// every hypothesis query is meaningless, so Q must be empty even if
	// insights are significant.
	if len(res.Queries) != 0 {
		t.Errorf("%d queries generated despite full FD closure", len(res.Queries))
	}
}

// TestSingleValuePerSide: attributes with values occurring once cannot be
// tested (minSideRows) and must be skipped silently.
func TestSingleValuePerSide(t *testing.T) {
	b := table.NewBuilder("sparse", []string{"id", "grp", "other"}, []string{"m"})
	for i := 0; i < 60; i++ {
		b.AddRow([]string{
			string(rune('A' + i)), // unique per row
			string(rune('a' + i%2)),
			string(rune('a' + i%3)),
		}, []float64{float64(i%2) * 100})
	}
	res, err := Generate(b.Build(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range res.Insights {
		if ins.Attr == 0 {
			t.Errorf("insight on the unique-valued attribute: %+v", ins)
		}
	}
}

// TestMaxPairsPerAttrCapsWork verifies the scale valve keeps the most
// frequent values.
func TestMaxPairsPerAttrCapsWork(t *testing.T) {
	ds := tinyDataset(t)
	cfg := testConfig()
	cfg.MaxPairsPerAttr = 3
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Generate(ds.Rel, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.InsightsEnumerated >= full.Counts.InsightsEnumerated {
		t.Errorf("cap did not reduce tests: %d vs %d",
			res.Counts.InsightsEnumerated, full.Counts.InsightsEnumerated)
	}
	if res.Counts.InsightsEnumerated == 0 {
		t.Error("cap removed everything")
	}
}
