package table

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func buildTestRelation(t *testing.T) *Relation {
	t.Helper()
	b := NewBuilder("covid", []string{"continent", "month"}, []string{"cases"})
	b.AddRow([]string{"Africa", "4"}, []float64{31598})
	b.AddRow([]string{"America", "4"}, []float64{1104862})
	b.AddRow([]string{"Africa", "5"}, []float64{92626})
	b.AddRow([]string{"America", "5"}, []float64{1404912})
	b.AddRow([]string{"Asia", "4"}, []float64{333821})
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	r := buildTestRelation(t)
	if r.Name() != "covid" {
		t.Errorf("Name() = %q, want covid", r.Name())
	}
	if r.NumRows() != 5 {
		t.Errorf("NumRows() = %d, want 5", r.NumRows())
	}
	if r.NumCatAttrs() != 2 || r.NumMeasures() != 1 {
		t.Errorf("schema = (%d cats, %d meas), want (2, 1)", r.NumCatAttrs(), r.NumMeasures())
	}
	if got := r.DomSize(0); got != 3 {
		t.Errorf("DomSize(continent) = %d, want 3", got)
	}
	if got := r.DomSize(1); got != 2 {
		t.Errorf("DomSize(month) = %d, want 2", got)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	r := buildTestRelation(t)
	for a := 0; a < r.NumCatAttrs(); a++ {
		for _, v := range r.catDicts[a] {
			c, ok := r.CodeOf(a, v)
			if !ok {
				t.Fatalf("CodeOf(%d, %q) not found", a, v)
			}
			if got := r.Value(a, c); got != v {
				t.Errorf("Value(%d, CodeOf(%q)) = %q", a, v, got)
			}
		}
	}
	if _, ok := r.CodeOf(0, "Atlantis"); ok {
		t.Error("CodeOf returned ok for a value outside the active domain")
	}
}

func TestIndexLookups(t *testing.T) {
	r := buildTestRelation(t)
	if got := r.CatIndexOf("month"); got != 1 {
		t.Errorf("CatIndexOf(month) = %d, want 1", got)
	}
	if got := r.CatIndexOf("nope"); got != -1 {
		t.Errorf("CatIndexOf(nope) = %d, want -1", got)
	}
	if got := r.MeasIndexOf("cases"); got != 0 {
		t.Errorf("MeasIndexOf(cases) = %d, want 0", got)
	}
	if got := r.MeasIndexOf("deaths"); got != -1 {
		t.Errorf("MeasIndexOf(deaths) = %d, want -1", got)
	}
}

func TestSelectSharesDictionaries(t *testing.T) {
	r := buildTestRelation(t)
	s := r.Select([]int{0, 2})
	if s.NumRows() != 2 {
		t.Fatalf("Select rows = %d, want 2", s.NumRows())
	}
	// Codes must be comparable across parent and sample.
	if s.CatCol(0)[0] != r.CatCol(0)[0] || s.CatCol(0)[1] != r.CatCol(0)[2] {
		t.Error("Select did not preserve dictionary codes")
	}
	if s.DomSize(0) != r.DomSize(0) {
		t.Errorf("sample DomSize = %d, want parent's %d", s.DomSize(0), r.DomSize(0))
	}
	if got := s.MeasCol(0); got[0] != 31598 || got[1] != 92626 {
		t.Errorf("sample measure = %v", got)
	}
}

func TestSelectEmpty(t *testing.T) {
	r := buildTestRelation(t)
	s := r.Select(nil)
	if s.NumRows() != 0 {
		t.Errorf("empty Select rows = %d, want 0", s.NumRows())
	}
}

func TestSortedDomain(t *testing.T) {
	b := NewBuilder("r", []string{"x"}, nil)
	for _, v := range []string{"zebra", "apple", "mango", "apple"} {
		b.AddRow([]string{v}, nil)
	}
	r := b.Build()
	codes := r.SortedDomain(0)
	var vals []string
	for _, c := range codes {
		vals = append(vals, r.Value(0, c))
	}
	want := []string{"apple", "mango", "zebra"}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("SortedDomain values = %v, want %v", vals, want)
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity did not panic")
		}
	}()
	b := NewBuilder("r", []string{"a"}, []string{"m"})
	b.AddRow([]string{"x", "y"}, []float64{1})
}

func TestAddRowAfterBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow after Build did not panic")
		}
	}()
	b := NewBuilder("r", []string{"a"}, nil)
	b.AddRow([]string{"x"}, nil)
	b.Build()
	b.AddRow([]string{"y"}, nil)
}

func TestRowString(t *testing.T) {
	r := buildTestRelation(t)
	got := r.Row(0)
	want := "{continent=Africa, month=4, cases=31598}"
	if got != want {
		t.Errorf("Row(0) = %q, want %q", got, want)
	}
}

// Property: dictionary encoding never changes the multiset of values in a
// column, for arbitrary inputs.
func TestQuickDictionaryPreservesColumn(t *testing.T) {
	f := func(vals []string) bool {
		b := NewBuilder("q", []string{"a"}, nil)
		for _, v := range vals {
			b.AddRow([]string{v}, nil)
		}
		r := b.Build()
		if r.NumRows() != len(vals) {
			return false
		}
		for i, v := range vals {
			if r.Value(0, r.CatCol(0)[i]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Select of a random permutation preserves every row.
func TestQuickSelectPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(meas []float64) bool {
		if len(meas) == 0 {
			return true
		}
		b := NewBuilder("q", nil, []string{"m"})
		for _, v := range meas {
			b.AddRow(nil, []float64{v})
		}
		r := b.Build()
		perm := rng.Perm(len(meas))
		s := r.Select(perm)
		got := append([]float64(nil), s.MeasCol(0)...)
		want := append([]float64(nil), meas...)
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range got {
			// NaN-safe comparison: NaN sorts freely, compare bit-level count.
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
