package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// fromCSVOracle is the row-copying loader FromCSVBytes replaced, kept as
// the differential tests' reference: it reads every record through
// encoding/csv into a [][]string, infers each column's type by parsing
// all of its cells, rescans inferred categoricals for the cardinality
// cap, then parses the measures a second time while adding the rows to a
// Builder. FromCSVBytes must match it on the relation (bit for bit), the
// report and the error text.
func fromCSVOracle(r io.Reader, opts CSVOptions) (*Relation, *CSVReport, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1

	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	names := append([]string(nil), header...)
	ncol := len(names)
	if ncol == 0 {
		return nil, nil, fmt.Errorf("table: CSV has no columns")
	}
	seenName := make(map[string]int, ncol)
	for c, n := range names {
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

	var records [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("table: reading CSV row %d: %w", len(records)+2, err)
		}
		if len(rec) != ncol {
			return nil, nil, fmt.Errorf("CSV row %d has %d fields, want %d: %w", len(records)+2, len(rec), ncol, ErrRaggedRow)
		}
		for c, cell := range rec {
			if !utf8.ValidString(cell) {
				return nil, nil, fmt.Errorf("CSV row %d column %d: %w", len(records)+2, c+1, ErrInvalidUTF8)
			}
		}
		if opts.MaxRows > 0 && len(records) >= opts.MaxRows {
			return nil, nil, fmt.Errorf("CSV has more than %d data rows: %w", opts.MaxRows, ErrTooManyRows)
		}
		records = append(records, append([]string(nil), rec...))
	}

	forceCat := toSet(opts.ForceCategorical)
	forceNum := toSet(opts.ForceNumeric)
	drop := toSet(opts.Drop)

	kind := make([]Kind, ncol)
	dropped := make([]bool, ncol)
	for c := 0; c < ncol; c++ {
		switch {
		case drop[names[c]]:
			dropped[c] = true
		case forceCat[names[c]]:
			kind[c] = Categorical
		case forceNum[names[c]]:
			kind[c] = Numeric
		case columnIsNumeric(records, c):
			kind[c] = Numeric
		default:
			kind[c] = Categorical
		}
	}

	if opts.MaxCategoricalCardinality > 0 {
		for c := 0; c < ncol; c++ {
			if dropped[c] || kind[c] != Categorical || forceCat[names[c]] {
				continue
			}
			if distinctCount(records, c, opts.MaxCategoricalCardinality) > opts.MaxCategoricalCardinality {
				dropped[c] = true
			}
		}
	}

	var catNames, measNames []string
	var catIdx, measIdx []int
	report := &CSVReport{Rows: len(records)}
	for c := 0; c < ncol; c++ {
		switch {
		case dropped[c]:
			report.Dropped = append(report.Dropped, names[c])
		case kind[c] == Categorical:
			catNames = append(catNames, names[c])
			catIdx = append(catIdx, c)
		default:
			measNames = append(measNames, names[c])
			measIdx = append(measIdx, c)
		}
	}
	report.Categorical = catNames
	report.Numeric = measNames

	name := opts.Name
	if name == "" {
		name = "csv"
	}
	b := NewBuilder(name, catNames, measNames)
	cats := make([]string, len(catIdx))
	meas := make([]float64, len(measIdx))
	for _, rec := range records {
		for i, c := range catIdx {
			cats[i] = rec[c]
		}
		for i, c := range measIdx {
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[c]), 64)
			if err != nil {
				v = math.NaN()
			}
			meas[i] = v
		}
		b.AddRow(cats, meas)
	}
	return b.Build(), report, nil
}

func columnIsNumeric(records [][]string, c int) bool {
	seen := false
	for _, rec := range records {
		cell := strings.TrimSpace(rec[c])
		if cell == "" {
			continue
		}
		seen = true
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			return false
		}
	}
	return seen
}

func distinctCount(records [][]string, c, cap int) int {
	seen := make(map[string]struct{}, cap+1)
	for _, rec := range records {
		seen[rec[c]] = struct{}{}
		if len(seen) > cap {
			break
		}
	}
	return len(seen)
}
