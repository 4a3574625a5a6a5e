package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Sentinel errors returned (wrapped, with row/column context) by the CSV
// loader. Match with errors.Is; the wrapping message carries the
// position, the sentinel carries the category, so callers can branch on
// the failure class without parsing strings.
var (
	// ErrRaggedRow: a data row's field count differs from the header's.
	ErrRaggedRow = errors.New("table: ragged row")
	// ErrEmptyHeader: a header cell is empty (or only whitespace), so the
	// column could never be addressed by the Force*/Drop options.
	ErrEmptyHeader = errors.New("table: empty header name")
	// ErrDuplicateHeader: two header cells carry the same name, which
	// would make Force*/Drop and the relation's name lookups ambiguous.
	ErrDuplicateHeader = errors.New("table: duplicate header name")
	// ErrInvalidUTF8: a header or data cell is not valid UTF-8. Dictionary
	// values flow verbatim into notebooks and JSON reports, which require
	// UTF-8; refusing at the border beats emitting mojibake later.
	ErrInvalidUTF8 = errors.New("table: invalid UTF-8")
	// ErrTooManyRows: the input exceeds CSVOptions.MaxRows. The loader
	// refuses rather than silently truncating — a truncated relation
	// would produce statistically wrong, plausible-looking insights.
	ErrTooManyRows = errors.New("table: too many rows")
)

// CSVOptions controls CSV import. The zero value infers everything.
type CSVOptions struct {
	// Name overrides the relation name (default: file base name, or "csv").
	Name string
	// Comma is the field delimiter (default ',').
	Comma rune
	// ForceCategorical lists column names that must be treated as
	// categorical even if every value parses as a number (e.g. a "month"
	// column coded 1..12).
	ForceCategorical []string
	// ForceNumeric lists column names that must be treated as measures.
	// Non-numeric cells in forced-numeric columns become NaN.
	ForceNumeric []string
	// Drop lists column names to ignore entirely.
	Drop []string
	// MaxCategoricalCardinality: an inferred-categorical column whose
	// distinct-value count exceeds this is dropped with a warning entry in
	// the returned report, since grouping by a key-like column is
	// meaningless (cf. the paper's FD pre-processing). 0 means no limit.
	MaxCategoricalCardinality int
	// MaxRows caps the number of data rows the loader will accept; an
	// input with more rows fails with ErrTooManyRows instead of being
	// truncated. 0 means no limit. This is the ingestion rung of the
	// resource ladder: it bounds load-time memory before any budget
	// deeper in the pipeline can act.
	MaxRows int
}

// CSVReport describes what the loader decided.
type CSVReport struct {
	Categorical []string
	Numeric     []string
	Dropped     []string
	Rows        int
}

// FromCSVFile loads a relation from a CSV file with a header row.
func FromCSVFile(path string, opts CSVOptions) (*Relation, *CSVReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if opts.Name == "" {
		base := filepath.Base(path)
		opts.Name = strings.TrimSuffix(base, filepath.Ext(base))
	}
	return FromCSVBytes(data, opts)
}

// FromCSV reads r to its end into one buffer, sized from r.Len() when r
// has one (bytes.Reader, strings.Reader, bytes.Buffer), and loads it
// with FromCSVBytes.
func FromCSV(r io.Reader, opts CSVOptions) (*Relation, *CSVReport, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("table: reading CSV: %w", err)
	}
	return FromCSVBytes(buf.Bytes(), opts)
}

// FromCSVBytes loads a relation from CSV data with a header row,
// inferring for each column whether it is a categorical attribute or a
// numeric measure: a column where every non-empty cell parses as a float
// is numeric, all others are categorical. The paper assumes the user
// "only has to distinguish between numeric and categorical attributes";
// the Force* options are that knob.
//
// The load is one pass over data. Each record is checked (ragged row,
// UTF-8, MaxRows, in that order) and its cells go straight into the
// column builders: dictionary codes for categorical columns, floats for
// numeric ones, one parse per cell. Only an inferred column that turns
// out categorical after a number had parsed is read a second time, from
// the same bytes. The relation keeps no reference to data.
func FromCSVBytes(data []byte, opts CSVOptions) (*Relation, *CSVReport, error) {
	recs := newRecords(data, opts.Comma)
	header, _, err := recs.next()
	if err != nil {
		return nil, nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	ncol := len(header)
	names := make([]string, ncol)
	seenName := make(map[string]int, ncol)
	for c, f := range header {
		n := string(f)
		names[c] = n
		if strings.TrimSpace(n) == "" {
			return nil, nil, fmt.Errorf("CSV header column %d: %w", c+1, ErrEmptyHeader)
		}
		if !utf8.ValidString(n) {
			return nil, nil, fmt.Errorf("CSV header column %d: %w", c+1, ErrInvalidUTF8)
		}
		if first, dup := seenName[n]; dup {
			return nil, nil, fmt.Errorf("CSV header columns %d and %d both named %q: %w", first+1, c+1, n, ErrDuplicateHeader)
		}
		seenName[n] = c
	}

	// Columns are sized once, to a bound on the rows. The header takes a
	// line and every data row but the last ends in a newline, so the
	// newline count is one bound. Blank lines inflate it, so take the
	// bytes too: every row but the last holds at least ncol bytes, its
	// delimiters and its newline, which keeps the columns' size
	// proportional to the input's.
	rowCap := min(bytes.Count(data, []byte{'\n'}), len(data)/ncol+1)
	if opts.MaxRows > 0 {
		rowCap = min(rowCap, opts.MaxRows)
	}
	cols := newColumns(names, opts, rowCap)
	rows := 0
	for {
		rec, line, err := recs.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("table: reading CSV row %d: %w", rows+2, err)
		}
		if len(rec) != ncol {
			return nil, nil, fmt.Errorf("CSV row %d has %d fields, want %d: %w", rows+2, len(rec), ncol, ErrRaggedRow)
		}
		if line == nil || !utf8.Valid(line) {
			for c, cell := range rec {
				if !utf8.Valid(cell) {
					return nil, nil, fmt.Errorf("CSV row %d column %d: %w", rows+2, c+1, ErrInvalidUTF8)
				}
			}
		}
		if opts.MaxRows > 0 && rows >= opts.MaxRows {
			return nil, nil, fmt.Errorf("CSV has more than %d data rows: %w", opts.MaxRows, ErrTooManyRows)
		}
		for c := range cols {
			cols[c].add(rec[c])
		}
		rows++
	}
	if err := rereadColumns(data, opts.Comma, cols, rows); err != nil {
		return nil, nil, err
	}

	name := opts.Name
	if name == "" {
		name = "csv"
	}
	rel := &Relation{name: name, rows: rows}
	report := &CSVReport{Rows: rows}
	for c := range cols {
		col := &cols[c]
		if col.kind == colBlank {
			// No cell was ever non-blank: categorical over the raw cells.
			col.kind = colCategorical
			col.capDictionary()
		}
		switch col.kind {
		case colDropped:
			report.Dropped = append(report.Dropped, names[c])
		case colCategorical:
			report.Categorical = append(report.Categorical, names[c])
			rel.catCols = append(rel.catCols, col.codes)
			rel.catDicts = append(rel.catDicts, col.dict)
			rel.catIndex = append(rel.catIndex, col.index)
		case colNumeric:
			report.Numeric = append(report.Numeric, names[c])
			rel.measCols = append(rel.measCols, col.vals)
		}
	}
	rel.catNames = slices.Clone(report.Categorical)
	rel.measNames = slices.Clone(report.Numeric)
	return rel, report, nil
}

// rereadColumns encodes the columns the first pass handed back as
// colReread — inferred columns whose cells stopped parsing after a
// number had — from a second pass over data. The first pass validated
// the same records, so this pass reads the header and rows records and
// nothing can fail.
func rereadColumns(data []byte, comma rune, cols []column, rows int) error {
	var reread []int
	for c := range cols {
		if cols[c].kind == colReread {
			cols[c].kind = colCategorical
			cols[c].codes = make([]int32, 0, rows)
			cols[c].index = make(map[string]int32)
			reread = append(reread, c)
		}
	}
	if len(reread) == 0 {
		return nil
	}
	recs := newRecords(data, comma)
	for r := 0; r <= rows; r++ {
		rec, _, err := recs.next()
		if err != nil {
			return fmt.Errorf("table: re-reading CSV record %d: %w", r+1, err)
		}
		if r == 0 {
			continue // the header
		}
		for _, c := range reread {
			cols[c].add(rec[c])
		}
	}
	return nil
}

// colKind is a column's state while FromCSVBytes loads it.
type colKind uint8

const (
	// colDropped: named in Drop, or an inferred categorical past the
	// cardinality cap. Its cells are skipped.
	colDropped colKind = iota
	// colCategorical: each raw cell is dictionary-encoded, codes in
	// first-appearance order.
	colCategorical
	// colNumeric: each cell is stored as ParseFloat(TrimSpace(cell)). A
	// blank cell, or any cell of a ForceNumeric column that fails to
	// parse (1e400 included: ParseFloat reports ErrRange), is NaN.
	colNumeric
	// colBlank: inferred, every cell so far blank. The cells are
	// dictionary-encoded while the column waits: its first non-blank
	// cell either parses (the column turns numeric and the blanks NaN)
	// or not (it turns categorical, the blanks' codes first).
	colBlank
	// colReread: inferred, a non-blank cell failed to parse after a
	// number had parsed. The column is categorical, but its earlier cells
	// were parsed, not kept, so rereadColumns encodes it afresh.
	colReread
)

// column builds one column of a relation being loaded.
type column struct {
	kind colKind
	// inferred: the type was not forced, so a non-blank cell that fails
	// to parse makes the column categorical, not NaN.
	inferred bool
	// limit is MaxCategoricalCardinality for an inferred column: it is
	// dropped once its dictionary outgrows the limit. 0 means none.
	limit  int
	rowCap int

	codes []int32
	dict  []string
	index map[string]int32
	vals  []float64
}

// newColumns sets up one builder per header column from the options.
// Drop takes precedence over ForceCategorical, which takes precedence
// over ForceNumeric.
func newColumns(names []string, opts CSVOptions, rowCap int) []column {
	forceCat := toSet(opts.ForceCategorical)
	forceNum := toSet(opts.ForceNumeric)
	drop := toSet(opts.Drop)
	cols := make([]column, len(names))
	for c, n := range names {
		col := &cols[c]
		col.rowCap = rowCap
		switch {
		case drop[n]:
			col.kind = colDropped
		case forceCat[n]:
			col.kind = colCategorical
			col.codes = make([]int32, 0, rowCap)
			col.index = make(map[string]int32)
		case forceNum[n]:
			col.kind = colNumeric
			col.vals = make([]float64, 0, rowCap)
		default:
			col.kind = colBlank
			col.inferred = true
			col.limit = opts.MaxCategoricalCardinality
			col.index = make(map[string]int32)
		}
	}
	return cols
}

// add takes the column's cell of the next row.
func (c *column) add(cell []byte) {
	switch c.kind {
	case colCategorical:
		c.encode(cell)
		c.capDictionary()
	case colNumeric:
		t := bytes.TrimSpace(cell)
		v, err := strconv.ParseFloat(string(t), 64)
		if err != nil {
			if c.inferred && len(t) > 0 {
				c.kind, c.vals = colReread, nil
				return
			}
			v = math.NaN()
		}
		c.vals = append(c.vals, v)
	case colBlank:
		t := bytes.TrimSpace(cell)
		if len(t) == 0 {
			c.encode(cell)
			return
		}
		v, err := strconv.ParseFloat(string(t), 64)
		if err != nil {
			c.kind = colCategorical
			c.codes = slices.Grow(c.codes, max(c.rowCap-len(c.codes), 0))
			c.encode(cell)
			c.capDictionary()
			return
		}
		// The first number: the float buffer starts here, the blanks
		// before it are NaN.
		c.vals = make([]float64, len(c.codes), max(c.rowCap, len(c.codes)+1))
		for i := range c.vals {
			c.vals[i] = math.NaN()
		}
		c.vals = append(c.vals, v)
		c.kind, c.codes, c.dict, c.index = colNumeric, nil, nil, nil
	}
}

// encode appends cell's dictionary code, adding cell to the dictionary
// when it is new. The dictionary holds a copy of the cell, never the
// input's bytes.
func (c *column) encode(cell []byte) {
	code, ok := c.index[string(cell)]
	if !ok {
		code = int32(len(c.dict))
		v := string(cell)
		c.dict = append(c.dict, v)
		c.index[v] = code
	}
	c.codes = append(c.codes, code)
}

// capDictionary drops a categorical column whose dictionary has outgrown
// its limit.
func (c *column) capDictionary() {
	if c.limit > 0 && len(c.dict) > c.limit {
		*c = column{kind: colDropped}
	}
}

// records splits CSV input into records of fields.
//
// Input with no '"' byte and a one-byte ASCII delimiter is split here,
// with encoding/csv's rules for unquoted input: a record is a non-empty
// line, lines end at '\n' with one '\r' before it (or before the end of
// input) dropped, and fields end at the delimiter. Fields are sub-slices
// of the input and the record's line comes along: an ASCII delimiter
// cannot split a UTF-8 sequence, so the line is valid UTF-8 exactly when
// every field is. Such input cannot fail to split.
//
// Any other input (a '"' somewhere, or a delimiter that is not one ASCII
// byte) goes through encoding/csv, so quoting, multi-line fields and
// every ParseError stay its own. Its fields are sub-slices of one buffer
// reused from record to record, and no line comes along.
type records struct {
	data   []byte // quote-free input not yet split
	comma  byte
	cr     *csv.Reader // nil for quote-free input
	fields [][]byte
	buf    []byte
}

func newRecords(data []byte, comma rune) *records {
	if comma == 0 {
		comma = ','
	}
	if 0 < comma && comma < utf8.RuneSelf && comma != '"' && comma != '\r' && comma != '\n' &&
		bytes.IndexByte(data, '"') < 0 {
		return &records{data: data, comma: byte(comma)}
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.Comma = comma
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1
	return &records{cr: cr}
}

// next returns the next record's fields and, for quote-free input, its
// line without the line ending. Both are valid until the next call. At
// the end of the input it returns io.EOF.
func (r *records) next() (fields [][]byte, line []byte, err error) {
	if r.cr != nil {
		return r.nextCSV()
	}
	for len(r.data) > 0 {
		line = r.data
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, r.data = line[:i], line[i+1:]
		} else {
			r.data = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		r.fields = r.fields[:0]
		rest := line
		for {
			i := bytes.IndexByte(rest, r.comma)
			if i < 0 {
				break
			}
			r.fields = append(r.fields, rest[:i])
			rest = rest[i+1:]
		}
		r.fields = append(r.fields, rest)
		return r.fields, line, nil
	}
	return nil, nil, io.EOF
}

func (r *records) nextCSV() ([][]byte, []byte, error) {
	rec, err := r.cr.Read()
	if err != nil {
		return nil, nil, err
	}
	r.buf = r.buf[:0]
	for _, f := range rec {
		r.buf = append(r.buf, f...)
	}
	r.fields = r.fields[:0]
	off := 0
	for _, f := range rec {
		r.fields = append(r.fields, r.buf[off:off+len(f)])
		off += len(f)
	}
	return r.fields, nil, nil
}

// WriteCSV writes the relation as CSV with a header row, categorical
// attributes first. It is the inverse of FromCSV for relations without NaN
// measures.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, r.catNames...), r.measNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for i := 0; i < r.rows; i++ {
		for a := range r.catNames {
			rec[a] = r.catDicts[a][r.catCols[a][i]]
		}
		for m := range r.measNames {
			rec[len(r.catNames)+m] = strconv.FormatFloat(r.measCols[m][i], 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
