// Package table implements the columnar, in-memory relation that the whole
// system runs on. A Relation matches the paper's setting: one table
// R[A1..An, M1..Mm] whose Ai are categorical attributes and whose Mj are
// numeric measures. Categorical columns are dictionary-encoded: each column
// stores one int32 code per row plus a code→string dictionary, so the active
// domain dom(Ai) is the dictionary itself and group-by keys are cheap
// integer compositions.
package table

import (
	"fmt"
	"sort"
)

// Kind distinguishes the two attribute families of the paper's schema.
type Kind int

const (
	// Categorical attributes are the Ai: grouping/selection attributes.
	Categorical Kind = iota
	// Numeric attributes are the measures Mj.
	Numeric
)

func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Relation is an immutable columnar table. Build one with a Builder or
// FromCSV; afterwards it is safe for concurrent readers.
type Relation struct {
	name string
	rows int

	catNames []string
	catCols  [][]int32
	catDicts [][]string
	catIndex []map[string]int32

	measNames []string
	measCols  [][]float64
}

// Name returns the relation name (e.g. the CSV base name).
func (r *Relation) Name() string { return r.name }

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return r.rows }

// NumCatAttrs returns n, the number of categorical attributes.
func (r *Relation) NumCatAttrs() int { return len(r.catNames) }

// NumMeasures returns m, the number of measures.
func (r *Relation) NumMeasures() int { return len(r.measNames) }

// CatName returns the name of categorical attribute a.
func (r *Relation) CatName(a int) string { return r.catNames[a] }

// MeasName returns the name of measure m.
func (r *Relation) MeasName(m int) string { return r.measNames[m] }

// CatIndexOf returns the index of the categorical attribute with the given
// name, or -1 if there is no such attribute.
func (r *Relation) CatIndexOf(name string) int {
	for i, n := range r.catNames {
		if n == name {
			return i
		}
	}
	return -1
}

// MeasIndexOf returns the index of the measure with the given name, or -1.
func (r *Relation) MeasIndexOf(name string) int {
	for i, n := range r.measNames {
		if n == name {
			return i
		}
	}
	return -1
}

// CatCol returns the dictionary codes of categorical attribute a. The slice
// is owned by the relation: callers must not modify it.
func (r *Relation) CatCol(a int) []int32 { return r.catCols[a] }

// MeasCol returns the values of measure m. The slice is owned by the
// relation: callers must not modify it.
func (r *Relation) MeasCol(m int) []float64 { return r.measCols[m] }

// Encoded does nothing. The relation's own columns are the only column
// view; Encoded exists solely because the benchmark's trace replay
// (perfbench/trace.go) still calls it and times the call as table/encode.
func (r *Relation) Encoded() {}

// DomSize returns |dom(Aa)|, the active-domain size of attribute a.
func (r *Relation) DomSize(a int) int { return len(r.catDicts[a]) }

// Value decodes code c of attribute a back to its string value.
func (r *Relation) Value(a int, c int32) string { return r.catDicts[a][c] }

// CodeOf returns the code for value v of attribute a, and whether the value
// occurs in the active domain.
func (r *Relation) CodeOf(a int, v string) (int32, bool) {
	c, ok := r.catIndex[a][v]
	return c, ok
}

// Select materialises the sub-relation consisting of the given row indexes
// (in order). Dictionaries are shared with the parent, so codes remain
// comparable across parent and sample — which is what the sampling-based
// statistical tests of §5.1.2 need.
func (r *Relation) Select(rows []int) *Relation {
	s := &Relation{
		name:      r.name,
		rows:      len(rows),
		catNames:  r.catNames,
		catDicts:  r.catDicts,
		catIndex:  r.catIndex,
		measNames: r.measNames,
	}
	s.catCols = make([][]int32, len(r.catCols))
	for a, col := range r.catCols {
		sub := make([]int32, len(rows))
		for i, ri := range rows {
			sub[i] = col[ri]
		}
		s.catCols[a] = sub
	}
	s.measCols = make([][]float64, len(r.measCols))
	for m, col := range r.measCols {
		sub := make([]float64, len(rows))
		for i, ri := range rows {
			sub[i] = col[ri]
		}
		s.measCols[m] = sub
	}
	return s
}

// Row formats row i as attribute=value pairs, mainly for debugging and
// error messages.
func (r *Relation) Row(i int) string {
	parts := make([]string, 0, len(r.catNames)+len(r.measNames))
	for a, n := range r.catNames {
		parts = append(parts, fmt.Sprintf("%s=%s", n, r.catDicts[a][r.catCols[a][i]]))
	}
	for m, n := range r.measNames {
		parts = append(parts, fmt.Sprintf("%s=%g", n, r.measCols[m][i]))
	}
	return "{" + join(parts, ", ") + "}"
}

func join(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}

// Builder assembles a Relation row by row. The zero value is not usable;
// create one with NewBuilder.
type Builder struct {
	rel      *Relation
	finished bool
}

// NewBuilder creates a builder for a relation with the given categorical
// attribute names and measure names.
func NewBuilder(name string, catNames, measNames []string) *Builder {
	r := &Relation{
		name:      name,
		catNames:  append([]string(nil), catNames...),
		measNames: append([]string(nil), measNames...),
	}
	r.catCols = make([][]int32, len(catNames))
	r.catDicts = make([][]string, len(catNames))
	r.catIndex = make([]map[string]int32, len(catNames))
	for i := range catNames {
		r.catIndex[i] = make(map[string]int32)
	}
	r.measCols = make([][]float64, len(measNames))
	return &Builder{rel: r}
}

// AddRow appends one tuple. cats and meas must match the builder's schema
// lengths; AddRow panics otherwise, since this is a programming error.
func (b *Builder) AddRow(cats []string, meas []float64) {
	if b.finished {
		panic("table: AddRow after Build")
	}
	r := b.rel
	if len(cats) != len(r.catNames) || len(meas) != len(r.measNames) {
		panic(fmt.Sprintf("table: AddRow arity mismatch: got %d cats %d meas, want %d and %d",
			len(cats), len(meas), len(r.catNames), len(r.measNames)))
	}
	for a, v := range cats {
		code, ok := r.catIndex[a][v]
		if !ok {
			code = int32(len(r.catDicts[a]))
			r.catDicts[a] = append(r.catDicts[a], v)
			r.catIndex[a][v] = code
		}
		r.catCols[a] = append(r.catCols[a], code)
	}
	for m, v := range meas {
		r.measCols[m] = append(r.measCols[m], v)
	}
	r.rows++
}

// Build finalises and returns the relation. The builder must not be used
// afterwards.
func (b *Builder) Build() *Relation {
	b.finished = true
	return b.rel
}

// SortedDomain returns the codes of attribute a ordered by their string
// values. Deterministic enumeration of val/val' pairs (Lemma 3.2/3.5) uses
// this so runs are reproducible regardless of input row order.
func (r *Relation) SortedDomain(a int) []int32 {
	codes := make([]int32, len(r.catDicts[a]))
	for i := range codes {
		codes[i] = int32(i)
	}
	dict := r.catDicts[a]
	sort.Slice(codes, func(i, j int) bool { return dict[codes[i]] < dict[codes[j]] })
	return codes
}
