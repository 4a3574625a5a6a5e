package table

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// loadMatchingOracle loads data with FromCSVBytes and with the
// row-copying oracle, fails t unless both agree on the error text, the
// report and the relation bit for bit, and returns FromCSVBytes' result.
func loadMatchingOracle(t *testing.T, data []byte, opts CSVOptions) (*Relation, *CSVReport, error) {
	t.Helper()
	want, wantRep, wantErr := fromCSVOracle(bytes.NewReader(data), opts)
	got, gotRep, err := FromCSVBytes(data, opts)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("error = %v, oracle %v", err, wantErr)
	}
	for _, s := range []error{ErrRaggedRow, ErrEmptyHeader, ErrDuplicateHeader, ErrInvalidUTF8, ErrTooManyRows} {
		if errors.Is(err, s) != errors.Is(wantErr, s) {
			t.Fatalf("errors.Is(%v, %v) differs from the oracle's %v", err, s, wantErr)
		}
	}
	if err != nil {
		if got != nil || gotRep != nil {
			t.Fatalf("FromCSVBytes returned partial result alongside error %v", err)
		}
		return nil, nil, err
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("report = %+v, oracle %+v", gotRep, wantRep)
	}
	if diff := relationDiff(got, want); diff != "" {
		t.Fatal(diff)
	}
	return got, gotRep, nil
}

// relationDiff describes the first difference between two relations —
// names, dictionaries in code order, codes, CodeOf lookups, float bits —
// or returns "".
func relationDiff(got, want *Relation) string {
	if got.Name() != want.Name() || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("relation %q with %d rows, want %q with %d", got.Name(), got.NumRows(), want.Name(), want.NumRows())
	}
	if !reflect.DeepEqual(got.catNames, want.catNames) || !reflect.DeepEqual(got.measNames, want.measNames) {
		return fmt.Sprintf("columns %v / %v, want %v / %v", got.catNames, got.measNames, want.catNames, want.measNames)
	}
	for a := range want.catNames {
		if !slices.Equal(got.catDicts[a], want.catDicts[a]) {
			return fmt.Sprintf("attribute %d dictionary %q, want %q", a, got.catDicts[a], want.catDicts[a])
		}
		if !slices.Equal(got.catCols[a], want.catCols[a]) {
			return fmt.Sprintf("attribute %d codes differ", a)
		}
		if len(got.catIndex[a]) != len(want.catDicts[a]) {
			return fmt.Sprintf("attribute %d index holds %d values, want %d", a, len(got.catIndex[a]), len(want.catDicts[a]))
		}
		for code, v := range want.catDicts[a] {
			if c, ok := got.CodeOf(a, v); !ok || c != int32(code) {
				return fmt.Sprintf("attribute %d CodeOf(%q) = %d, %v; want %d", a, v, c, ok, code)
			}
		}
	}
	for m := range want.measNames {
		g, w := got.measCols[m], want.measCols[m]
		if len(g) != len(w) {
			return fmt.Sprintf("measure %d has %d values, want %d", m, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("measure %d row %d = %v, want %v", m, i, g[i], w[i])
			}
		}
	}
	return ""
}

// shapedCSV generates the CSV of a relation shaped like the benchmark's
// workloads: categorical columns cat<a> with values a<a>_v<nnn> drawn
// with Zipf-like frequencies over the given domain sizes, then measure
// columns meas<m> of normal draws written at full precision.
func shapedCSV(seed int64, rows int, domains []int, measures int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	for a := range domains {
		fmt.Fprintf(&b, "cat%d,", a)
	}
	for m := 0; m < measures; m++ {
		if m > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "meas%d", m)
	}
	b.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for a, d := range domains {
			v := int(float64(d) * rng.Float64() * rng.Float64())
			fmt.Fprintf(&b, "a%d_v%03d,", a, v)
		}
		for m := 0; m < measures; m++ {
			if m > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(100+20*rng.NormFloat64(), 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

var (
	freshUploadDomains   = []int{8, 6, 5, 4, 4, 3, 3, 2}
	sharedExploreDomains = []int{24, 8, 6, 5, 4, 3}
)

// TestFromCSVBytesMatchesOracleShaped holds the loader to the oracle on a
// workload-shaped CSV under the option sets the daemon and the CLIs use.
func TestFromCSVBytesMatchesOracleShaped(t *testing.T) {
	data := shapedCSV(1, 10000, freshUploadDomains, 2)
	for _, opts := range []CSVOptions{
		{Name: "default"},
		{Name: "maxrows", MaxRows: 100},
		{Name: "forced", ForceCategorical: []string{"meas1"}, ForceNumeric: []string{"cat0", "cat3"}, Drop: []string{"cat1"}},
		{Name: "capped", MaxCategoricalCardinality: 5, ForceCategorical: []string{"cat0"}},
	} {
		t.Run(opts.Name, func(t *testing.T) {
			_, _, _ = loadMatchingOracle(t, data, opts)
		})
	}
}

// randomCSV draws a small CSV from the cases the loader treats apart:
// lone '\r', "\r\n", blank lines and a missing final newline; invalid
// UTF-8; blank, padded, overflowing (1e400), NaN, Inf and hex numbers;
// quoted fields; ragged rows. Columns are mostly numeric or mostly
// categorical, so cells that fail after numbers (and the second pass)
// are common.
func randomCSV(rng *rand.Rand) (data []byte, ncol int) {
	cells := []string{"", " ", "  ", "\t", "1", "2", " 3 ", "-4.5", "1e400", "-1e400", "NaN", "nan", "inf", "-Inf",
		"0x1p-2", "1_000", "x", "y", " x", "zz", "é", "\xff", "a\rb", "\r", "\"q\"", "\"a,b\"", "\"l\nm\"", "\"\"\"\""}
	numeric, other := cells[:16], cells[16:]
	ncol = 1 + rng.Intn(4)
	var b bytes.Buffer
	for c := 0; c < ncol; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "c%d", c)
	}
	eol := func() {
		switch rng.Intn(10) {
		case 0:
			b.WriteString("\r\n")
		case 1:
			b.WriteString("\n\n")
		default:
			b.WriteByte('\n')
		}
	}
	eol()
	numericCol := make([]bool, ncol)
	for c := range numericCol {
		numericCol[c] = rng.Intn(3) > 0
	}
	rows := rng.Intn(12)
	for r := 0; r < rows; r++ {
		width := ncol
		if rng.Intn(30) == 0 {
			width = 1 + rng.Intn(ncol+1)
		}
		for c := 0; c < width; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			pool := other
			if c < ncol && numericCol[c] && rng.Intn(8) > 0 {
				pool = numeric
			}
			b.WriteString(pool[rng.Intn(len(pool))])
		}
		if r < rows-1 || rng.Intn(3) > 0 {
			eol()
		}
	}
	return b.Bytes(), ncol
}

// TestFromCSVBytesMatchesOracleRandom holds the loader to the oracle on
// random small CSVs under random options.
func TestFromCSVBytesMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		data, ncol := randomCSV(rng)
		opts := CSVOptions{Name: "r"}
		if rng.Intn(4) == 0 {
			opts.MaxRows = 1 + rng.Intn(6)
		}
		if rng.Intn(4) == 0 {
			opts.MaxCategoricalCardinality = 1 + rng.Intn(4)
		}
		if rng.Intn(6) == 0 {
			opts.Comma = ';'
			data = bytes.ReplaceAll(data, []byte(","), []byte(";"))
		}
		for c := 0; c < ncol; c++ {
			name := fmt.Sprintf("c%d", c)
			switch rng.Intn(8) {
			case 0:
				opts.ForceCategorical = append(opts.ForceCategorical, name)
			case 1:
				opts.ForceNumeric = append(opts.ForceNumeric, name)
			case 2:
				opts.Drop = append(opts.Drop, name)
			}
		}
		t.Run(strconv.Itoa(i), func(t *testing.T) {
			_, _, _ = loadMatchingOracle(t, data, opts)
		})
	}
}

// TestFromCSVBytesCopiesDictionary: the relation keeps no reference to
// the input — overwriting the bytes after a load changes no name and no
// dictionary value, on both record sources.
func TestFromCSVBytesCopiesDictionary(t *testing.T) {
	for _, src := range []string{
		"g,h,m\nx,p,1\ny,q,2\nx,r,3\n",         // quote-free
		"g,h,m\n\"x\",p,1\ny,\"q\",2\nx,r,3\n", // encoding/csv
	} {
		data := []byte(src)
		rel, _, err := FromCSVBytes(data, CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var before []string
		for a := 0; a < rel.NumCatAttrs(); a++ {
			before = append(before, rel.CatName(a))
			before = append(before, rel.catDicts[a]...)
		}
		for i := range data {
			data[i] = '#'
		}
		var after []string
		for a := 0; a < rel.NumCatAttrs(); a++ {
			after = append(after, rel.CatName(a))
			after = append(after, rel.catDicts[a]...)
		}
		if !slices.Equal(before, after) || strings.Contains(strings.Join(after, ""), "#") {
			t.Errorf("%q: names and dictionaries %q changed to %q when the input was overwritten", src, before, after)
		}
	}
}

// TestFromCSVBytesSizesColumnsToInput: blank lines count as newlines but
// hold no rows, so they must not size the columns. One row of 500
// numeric cells followed by 200,000 blank lines would ask for 800 MB of
// floats if the newline count alone sized them.
func TestFromCSVBytesSizesColumnsToInput(t *testing.T) {
	const ncol = 500
	var b bytes.Buffer
	for c := 0; c < ncol; c++ {
		fmt.Fprintf(&b, "m%d,", c)
	}
	b.WriteString("g\n")
	b.WriteString(strings.Repeat("1,", ncol) + "x\n")
	b.WriteString(strings.Repeat("\n", 200000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rel, _, err := FromCSVBytes(b.Bytes(), CSVOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.NumMeasures() != ncol {
		t.Fatalf("loaded %d rows and %d measures, want 1 and %d", rel.NumRows(), rel.NumMeasures(), ncol)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*b.Len()); got > limit {
		t.Errorf("loading %d bytes allocated %d bytes, want at most %d", b.Len(), got, limit)
	}
}

// BenchmarkFromCSV times the daemon's loader call on CSVs of the two
// benchmark workloads' relation shapes.
func BenchmarkFromCSV(b *testing.B) {
	for _, bc := range []struct {
		name    string
		rows    int
		domains []int
	}{
		{"fresh-upload-40k", 40000, freshUploadDomains},
		{"shared-explore-5k", 5000, sharedExploreDomains},
	} {
		data := shapedCSV(1, bc.rows, bc.domains, 2)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				if _, _, err := FromCSVBytes(data, CSVOptions{Name: "bench"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
