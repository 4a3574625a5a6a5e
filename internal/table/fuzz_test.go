package table

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// FuzzCSV feeds arbitrary bytes through the CSV loader. The loader may
// refuse the input, but it must never panic, never return a partial
// relation alongside an error, never exceed an armed MaxRows, and every
// string a successful load retains must be valid UTF-8 — those strings
// flow verbatim into notebooks and JSON reports.
func FuzzCSV(f *testing.F) {
	f.Add([]byte("continent,cases\nAfrica,3\nAsia,4\n"), int64(0))
	f.Add([]byte("a,b\n1\n"), int64(0))                    // ragged row
	f.Add([]byte("a,a\n1,2\n"), int64(0))                  // duplicate header
	f.Add([]byte(",b\n1,2\n"), int64(0))                   // empty header
	f.Add([]byte("a,b\nx,\xff\n"), int64(0))               // invalid UTF-8 cell
	f.Add([]byte("a,b\n1,2\n3,4\n5,6\n"), int64(2))        // MaxRows exceeded
	f.Add([]byte("a,\"b\nc\",d\n\"x,y\",2,3\n"), int64(0)) // quoting
	f.Fuzz(func(t *testing.T, data []byte, maxRows int64) {
		opts := CSVOptions{Name: "fuzz"}
		if maxRows > 0 {
			opts.MaxRows = int(maxRows % 1024)
		}
		rel, rep, err := FromCSV(bytes.NewReader(data), opts)
		if err != nil {
			if rel != nil || rep != nil {
				t.Fatalf("FromCSV returned partial result alongside error %v", err)
			}
			return
		}
		if opts.MaxRows > 0 && rel.NumRows() > opts.MaxRows {
			t.Fatalf("loaded %d rows past MaxRows=%d", rel.NumRows(), opts.MaxRows)
		}
		if rel.NumRows() != rep.Rows {
			t.Fatalf("relation rows %d != report rows %d", rel.NumRows(), rep.Rows)
		}
		if rel.NumCatAttrs() != len(rep.Categorical) || rel.NumMeasures() != len(rep.Numeric) {
			t.Fatalf("relation shape disagrees with report: %v / %v", rep.Categorical, rep.Numeric)
		}
		for a := 0; a < rel.NumCatAttrs(); a++ {
			if !utf8.ValidString(rel.CatName(a)) {
				t.Fatalf("attribute %d name is invalid UTF-8", a)
			}
			if len(rel.CatCol(a)) != rel.NumRows() {
				t.Fatalf("attribute %d column length %d != %d rows", a, len(rel.CatCol(a)), rel.NumRows())
			}
			for v := 0; v < rel.DomSize(a); v++ {
				if !utf8.ValidString(rel.Value(a, int32(v))) {
					t.Fatalf("attribute %d value %d is invalid UTF-8", a, v)
				}
			}
		}
		for m := 0; m < rel.NumMeasures(); m++ {
			if !utf8.ValidString(rel.MeasName(m)) {
				t.Fatalf("measure %d name is invalid UTF-8", m)
			}
			if len(rel.MeasCol(m)) != rel.NumRows() {
				t.Fatalf("measure %d column length %d != %d rows", m, len(rel.MeasCol(m)), rel.NumRows())
			}
		}
	})
}

// TestQuickCSVNeverPanics feeds arbitrary text through the CSV loader: it
// may return an error but must never panic, and a successful load must
// have consistent shape.
func TestQuickCSVNeverPanics(t *testing.T) {
	f := func(body string) bool {
		rel, rep, err := FromCSV(strings.NewReader(body), CSVOptions{Name: "fuzz"})
		if err != nil {
			return true
		}
		if rel.NumRows() != rep.Rows {
			return false
		}
		if rel.NumCatAttrs() != len(rep.Categorical) || rel.NumMeasures() != len(rep.Numeric) {
			return false
		}
		for a := 0; a < rel.NumCatAttrs(); a++ {
			if len(rel.CatCol(a)) != rel.NumRows() {
				return false
			}
		}
		for m := 0; m < rel.NumMeasures(); m++ {
			if len(rel.MeasCol(m)) != rel.NumRows() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCSVRoundTripStable: loading the CSV we wrote produces the same
// relation (for relations without NaN and without embedded newlines that
// the csv writer would quote — WriteCSV handles quoting, so any values
// are fine).
func TestQuickCSVRoundTripStable(t *testing.T) {
	f := func(vals []string, meas []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range meas {
			if v != v { // skip NaN inputs
				return true
			}
		}
		b := NewBuilder("q", []string{"a"}, []string{"m"})
		for i, v := range vals {
			mv := 0.0
			if len(meas) > 0 {
				mv = meas[i%len(meas)]
			}
			b.AddRow([]string{v}, []float64{mv})
		}
		r1 := b.Build()
		var sb strings.Builder
		if err := r1.WriteCSV(&sb); err != nil {
			return false
		}
		r2, _, err := FromCSV(strings.NewReader(sb.String()), CSVOptions{
			Name:             "q",
			ForceCategorical: []string{"a"},
			ForceNumeric:     []string{"m"},
		})
		if err != nil {
			// encoding/csv cannot represent a lone "\r" etc.; an error is
			// acceptable, silent corruption is not.
			return true
		}
		if r2.NumRows() != r1.NumRows() {
			return false
		}
		for i := 0; i < r1.NumRows(); i++ {
			v1 := r1.Value(0, r1.CatCol(0)[i])
			v2 := r2.Value(0, r2.CatCol(0)[i])
			if normalizeCRLF(v1) != normalizeCRLF(v2) {
				return false
			}
			if r1.MeasCol(0)[i] != r2.MeasCol(0)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// normalizeCRLF mirrors encoding/csv's documented newline normalisation
// inside quoted fields.
func normalizeCRLF(s string) string {
	return strings.ReplaceAll(s, "\r\n", "\n")
}
