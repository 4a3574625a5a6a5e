package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"comparenb/internal/table"
)

// This file is a test oracle: the literal operator trees of the extended
// relational algebra the paper's queries are written in (Def. 3.1/3.7):
// σ (selection), γ (grouping / aggregation), ⋈ (equi-join), τ (sort) and
// π (projection), composed over materialised, row-at-a-time intermediate
// results. Production evaluates the same queries with CompareDirect
// (cmd/compare, Figure 5), which the tests hold to these trees bit for bit,
// and CompareFromCube (the pipeline), which they hold to CompareDirect.

// ColKind is the type of a derived column.
type ColKind int

const (
	// Str columns hold categorical values.
	Str ColKind = iota
	// Num columns hold numeric values.
	Num
)

// Rows is a materialised intermediate result: a small column-oriented
// table with named, typed columns.
type Rows struct {
	Names []string
	Kinds []ColKind
	Strs  map[int][]string  // column index → values (Str columns)
	Nums  map[int][]float64 // column index → values (Num columns)
	N     int
}

// NewRows creates an empty result with the given schema.
func NewRows(names []string, kinds []ColKind) *Rows {
	r := &Rows{Names: names, Kinds: kinds, Strs: map[int][]string{}, Nums: map[int][]float64{}}
	for i, k := range kinds {
		if k == Str {
			r.Strs[i] = nil
		} else {
			r.Nums[i] = nil
		}
	}
	return r
}

// Col returns the index of the named column, or -1.
func (r *Rows) Col(name string) int {
	for i, n := range r.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// appendRow adds one row given per-column values (string or float64).
func (r *Rows) appendRow(vals []any) {
	for i, v := range vals {
		switch r.Kinds[i] {
		case Str:
			r.Strs[i] = append(r.Strs[i], v.(string))
		case Num:
			r.Nums[i] = append(r.Nums[i], v.(float64))
		}
	}
	r.N++
}

// String renders the rows as an aligned text table (for examples/tests).
func (r *Rows) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Names, " | "))
	sb.WriteString("\n")
	for row := 0; row < r.N; row++ {
		parts := make([]string, len(r.Names))
		for c := range r.Names {
			if r.Kinds[c] == Str {
				parts[c] = r.Strs[c][row]
			} else {
				parts[c] = fmt.Sprintf("%g", r.Nums[c][row])
			}
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Plan is a node of the operator tree.
type Plan interface {
	// Run executes the subtree and materialises its result.
	Run() (*Rows, error)
	// Explain renders the subtree one operator per line.
	Explain() string
}

// ScanOp reads the base relation: one output column per categorical
// attribute (Str) and per measure (Num).
type ScanOp struct {
	Rel *table.Relation
}

// Scan creates a scan of the relation.
func Scan(rel *table.Relation) *ScanOp { return &ScanOp{Rel: rel} }

// Run implements Plan.
func (s *ScanOp) Run() (*Rows, error) {
	rel := s.Rel
	var names []string
	for a := 0; a < rel.NumCatAttrs(); a++ {
		names = append(names, rel.CatName(a))
	}
	for m := 0; m < rel.NumMeasures(); m++ {
		names = append(names, rel.MeasName(m))
	}
	kinds := make([]ColKind, len(names))
	for i := rel.NumCatAttrs(); i < len(names); i++ {
		kinds[i] = Num
	}
	out := NewRows(names, kinds)
	out.N = rel.NumRows()
	for a := 0; a < rel.NumCatAttrs(); a++ {
		col := make([]string, rel.NumRows())
		for i, c := range rel.CatCol(a) {
			col[i] = rel.Value(a, c)
		}
		out.Strs[a] = col
	}
	for m := 0; m < rel.NumMeasures(); m++ {
		out.Nums[rel.NumCatAttrs()+m] = append([]float64(nil), rel.MeasCol(m)...)
	}
	return out, nil
}

// Explain implements Plan.
func (s *ScanOp) Explain() string { return "Scan(" + s.Rel.Name() + ")" }

// SelectOp is σ_pred.
type SelectOp struct {
	Input Plan
	Desc  string
	Pred  func(r *Rows, row int) bool
}

// SelectEq builds σ_{col=val} over string columns (the paper's B = val).
func SelectEq(input Plan, col, val string) *SelectOp {
	return &SelectOp{
		Input: input,
		Desc:  fmt.Sprintf("σ(%s = %q)", col, val),
		Pred: func(r *Rows, row int) bool {
			c := r.Col(col)
			return c >= 0 && r.Kinds[c] == Str && r.Strs[c][row] == val
		},
	}
}

// SelectIn builds σ_{col ∈ vals}.
func SelectIn(input Plan, col string, vals ...string) *SelectOp {
	set := map[string]bool{}
	for _, v := range vals {
		set[v] = true
	}
	return &SelectOp{
		Input: input,
		Desc:  fmt.Sprintf("σ(%s ∈ %v)", col, vals),
		Pred: func(r *Rows, row int) bool {
			c := r.Col(col)
			return c >= 0 && r.Kinds[c] == Str && set[r.Strs[c][row]]
		},
	}
}

// Run implements Plan.
func (s *SelectOp) Run() (*Rows, error) {
	in, err := s.Input.Run()
	if err != nil {
		return nil, err
	}
	out := NewRows(in.Names, in.Kinds)
	for row := 0; row < in.N; row++ {
		if !s.Pred(in, row) {
			continue
		}
		for c := range in.Names {
			if in.Kinds[c] == Str {
				out.Strs[c] = append(out.Strs[c], in.Strs[c][row])
			} else {
				out.Nums[c] = append(out.Nums[c], in.Nums[c][row])
			}
		}
		out.N++
	}
	return out, nil
}

// Explain implements Plan.
func (s *SelectOp) Explain() string { return s.Desc + "\n  " + indent(s.Input.Explain()) }

// AggSpec is one aggregate of a γ operator.
type AggSpec struct {
	Agg Agg
	Col string // input measure column (ignored for Count)
	As  string // output column name
}

// GroupByOp is γ_{keys, aggs}.
type GroupByOp struct {
	Input Plan
	Keys  []string
	Aggs  []AggSpec
}

// GroupBy builds a grouping/aggregation node.
func GroupBy(input Plan, keys []string, aggs ...AggSpec) *GroupByOp {
	return &GroupByOp{Input: input, Keys: keys, Aggs: aggs}
}

// Run implements Plan.
func (g *GroupByOp) Run() (*Rows, error) {
	in, err := g.Input.Run()
	if err != nil {
		return nil, err
	}
	keyCols := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		keyCols[i] = in.Col(k)
		if keyCols[i] < 0 || in.Kinds[keyCols[i]] != Str {
			return nil, fmt.Errorf("engine: group-by key %q is not a string column", k)
		}
	}
	type state struct {
		vals     []string
		count    int64
		sum      []float64
		min, max []float64
	}
	aggCols := make([]int, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Agg == Count {
			aggCols[i] = -1
			continue
		}
		aggCols[i] = in.Col(a.Col)
		if aggCols[i] < 0 || in.Kinds[aggCols[i]] != Num {
			return nil, fmt.Errorf("engine: aggregate input %q is not a numeric column", a.Col)
		}
	}
	groups := map[string]*state{}
	var order []string
	var keyBuf strings.Builder
	for row := 0; row < in.N; row++ {
		keyBuf.Reset()
		for _, kc := range keyCols {
			keyBuf.WriteString(in.Strs[kc][row])
			keyBuf.WriteByte(0)
		}
		key := keyBuf.String()
		st := groups[key]
		if st == nil {
			st = &state{
				sum: make([]float64, len(g.Aggs)),
				min: make([]float64, len(g.Aggs)),
				max: make([]float64, len(g.Aggs)),
			}
			for i := range st.min {
				st.min[i] = math.NaN()
				st.max[i] = math.NaN()
			}
			for _, kc := range keyCols {
				st.vals = append(st.vals, in.Strs[kc][row])
			}
			groups[key] = st
			order = append(order, key)
		}
		st.count++
		for i, ac := range aggCols {
			if ac < 0 {
				continue
			}
			v := in.Nums[ac][row]
			if math.IsNaN(v) {
				continue
			}
			st.sum[i] += v
			if math.IsNaN(st.min[i]) || v < st.min[i] {
				st.min[i] = v
			}
			if math.IsNaN(st.max[i]) || v > st.max[i] {
				st.max[i] = v
			}
		}
	}
	names := append([]string(nil), g.Keys...)
	kinds := make([]ColKind, len(g.Keys), len(g.Keys)+len(g.Aggs))
	for _, a := range g.Aggs {
		names = append(names, a.As)
		kinds = append(kinds, Num)
	}
	out := NewRows(names, kinds)
	for _, key := range order {
		st := groups[key]
		vals := make([]any, 0, len(names))
		for _, v := range st.vals {
			vals = append(vals, v)
		}
		for i, a := range g.Aggs {
			var v float64
			switch a.Agg {
			case Sum:
				v = st.sum[i]
			case Avg:
				v = st.sum[i] / float64(st.count)
			case Min:
				v = st.min[i]
			case Max:
				v = st.max[i]
			case Count:
				v = float64(st.count)
			}
			vals = append(vals, v)
		}
		out.appendRow(vals)
	}
	return out, nil
}

// Explain implements Plan.
func (g *GroupByOp) Explain() string {
	parts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Agg == Count {
			parts[i] = "count(*) as " + a.As
		} else {
			parts[i] = fmt.Sprintf("%s(%s) as %s", a.Agg, a.Col, a.As)
		}
	}
	return fmt.Sprintf("γ(keys=%v, %s)\n  %s", g.Keys, strings.Join(parts, ", "), indent(g.Input.Explain()))
}

// JoinOp is an equi-join on one shared string column (the ⋈ of Def. 3.1).
type JoinOp struct {
	Left, Right Plan
	On          string
}

// JoinOn builds the equi-join node.
func JoinOn(left, right Plan, on string) *JoinOp { return &JoinOp{Left: left, Right: right, On: on} }

// Run implements Plan.
func (j *JoinOp) Run() (*Rows, error) {
	l, err := j.Left.Run()
	if err != nil {
		return nil, err
	}
	r, err := j.Right.Run()
	if err != nil {
		return nil, err
	}
	lc, rc := l.Col(j.On), r.Col(j.On)
	if lc < 0 || rc < 0 || l.Kinds[lc] != Str || r.Kinds[rc] != Str {
		return nil, fmt.Errorf("engine: join column %q missing or non-string", j.On)
	}
	// Hash join; right side indexed.
	index := map[string][]int{}
	for row := 0; row < r.N; row++ {
		k := r.Strs[rc][row]
		index[k] = append(index[k], row)
	}
	names := append([]string(nil), l.Names...)
	kinds := append([]ColKind(nil), l.Kinds...)
	for c, n := range r.Names {
		if c == rc {
			continue
		}
		name := n
		if l.Col(n) >= 0 {
			name = "r." + n
		}
		names = append(names, name)
		kinds = append(kinds, r.Kinds[c])
	}
	out := NewRows(names, kinds)
	for lrow := 0; lrow < l.N; lrow++ {
		for _, rrow := range index[l.Strs[lc][lrow]] {
			vals := make([]any, 0, len(names))
			for c := range l.Names {
				if l.Kinds[c] == Str {
					vals = append(vals, l.Strs[c][lrow])
				} else {
					vals = append(vals, l.Nums[c][lrow])
				}
			}
			for c := range r.Names {
				if c == rc {
					continue
				}
				if r.Kinds[c] == Str {
					vals = append(vals, r.Strs[c][rrow])
				} else {
					vals = append(vals, r.Nums[c][rrow])
				}
			}
			out.appendRow(vals)
		}
	}
	return out, nil
}

// Explain implements Plan.
func (j *JoinOp) Explain() string {
	return fmt.Sprintf("⋈(on=%s)\n  %s\n  %s", j.On, indent(j.Left.Explain()), indent(j.Right.Explain()))
}

// SortOp is τ_col (ascending string order, the paper's τ_A).
type SortOp struct {
	Input Plan
	By    string
}

// SortBy builds the sort node.
func SortBy(input Plan, by string) *SortOp { return &SortOp{Input: input, By: by} }

// Run implements Plan.
func (s *SortOp) Run() (*Rows, error) {
	in, err := s.Input.Run()
	if err != nil {
		return nil, err
	}
	c := in.Col(s.By)
	if c < 0 || in.Kinds[c] != Str {
		return nil, fmt.Errorf("engine: sort column %q missing or non-string", s.By)
	}
	perm := make([]int, in.N)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return in.Strs[c][perm[a]] < in.Strs[c][perm[b]] })
	out := NewRows(in.Names, in.Kinds)
	out.N = in.N
	for col := range in.Names {
		if in.Kinds[col] == Str {
			vals := make([]string, in.N)
			for i, p := range perm {
				vals[i] = in.Strs[col][p]
			}
			out.Strs[col] = vals
		} else {
			vals := make([]float64, in.N)
			for i, p := range perm {
				vals[i] = in.Nums[col][p]
			}
			out.Nums[col] = vals
		}
	}
	return out, nil
}

// Explain implements Plan.
func (s *SortOp) Explain() string { return "τ(" + s.By + ")\n  " + indent(s.Input.Explain()) }

// ProjectOp is π_cols.
type ProjectOp struct {
	Input Plan
	Cols  []string
}

// Project builds the projection node.
func Project(input Plan, cols ...string) *ProjectOp { return &ProjectOp{Input: input, Cols: cols} }

// Run implements Plan.
func (p *ProjectOp) Run() (*Rows, error) {
	in, err := p.Input.Run()
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(p.Cols))
	kinds := make([]ColKind, len(p.Cols))
	for i, c := range p.Cols {
		idx[i] = in.Col(c)
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: projected column %q missing", c)
		}
		kinds[i] = in.Kinds[idx[i]]
	}
	out := NewRows(append([]string(nil), p.Cols...), kinds)
	out.N = in.N
	for i, c := range idx {
		if kinds[i] == Str {
			out.Strs[i] = in.Strs[c]
		} else {
			out.Nums[i] = in.Nums[c]
		}
	}
	return out, nil
}

// Explain implements Plan.
func (p *ProjectOp) Explain() string {
	return fmt.Sprintf("π(%v)\n  %s", p.Cols, indent(p.Input.Explain()))
}

func indent(s string) string { return strings.ReplaceAll(s, "\n", "\n  ") }

// HavingOp implements the σ_p of a hypothesis query (Def. 3.7): a
// predicate over column aggregates of its input. When the predicate holds
// it emits a single row with the hypothesis label; otherwise it emits no
// rows — exactly the observable behaviour of Figure 3's SQL.
type HavingOp struct {
	Input Plan
	Label string
	Desc  string
	Pred  func(r *Rows) (bool, error)
}

// Run implements Plan.
func (h *HavingOp) Run() (*Rows, error) {
	in, err := h.Input.Run()
	if err != nil {
		return nil, err
	}
	out := NewRows([]string{"hypothesis"}, []ColKind{Str})
	ok, err := h.Pred(in)
	if err != nil {
		return nil, err
	}
	if ok {
		out.appendRow([]any{h.Label})
	}
	return out, nil
}

// Explain implements Plan.
func (h *HavingOp) Explain() string {
	return fmt.Sprintf("π(%q) σ(%s)\n  %s", h.Label, h.Desc, indent(h.Input.Explain()))
}

// numColumn extracts a numeric column by name.
func numColumn(r *Rows, name string) ([]float64, error) {
	c := r.Col(name)
	if c < 0 || r.Kinds[c] != Num {
		return nil, fmt.Errorf("engine: column %q missing or non-numeric", name)
	}
	return r.Nums[c][:r.N], nil
}

// HypothesisPlan builds the literal operator tree of Definition 3.7 on top
// of ComparisonPlan: σ_p over the comparison result, projecting the
// hypothesis label. The predicate is the insight type's (mean greater /
// variance greater / median greater over the two series).
func HypothesisPlan(rel *table.Relation, attrA, attrB int, val, val2 int32, meas int, agg Agg, predicate SeriesPredicate, label string) Plan {
	return &HavingOp{
		Input: ComparisonPlan(rel, attrA, attrB, val, val2, meas, agg),
		Label: label,
		Desc:  predicate.Desc,
		Pred: func(r *Rows) (bool, error) {
			left, err := numColumn(r, "left")
			if err != nil {
				return false, err
			}
			right, err := numColumn(r, "right")
			if err != nil {
				return false, err
			}
			return predicate.Holds(left, right), nil
		},
	}
}

// CovidRelation is the Figure 2 fixture, exported to the external test
// package, which checks HypothesisPlan against internal/insight.
var CovidRelation = covidRelation

// SeriesPredicate is a named predicate over the two comparison series.
type SeriesPredicate struct {
	Desc  string
	Holds func(left, right []float64) bool
}

// ComparisonPlan builds the literal operator tree of Definition 3.1:
//
//	τ_A( γ_{A,agg(M)}(σ_{B=val}(R)) ⋈_A γ_{A,agg(M)}(σ_{B=val'}(R)) )
//
// with column names matching the SQL that sqlgen emits.
func ComparisonPlan(rel *table.Relation, attrA, attrB int, val, val2 int32, meas int, agg Agg) Plan {
	a := rel.CatName(attrA)
	b := rel.CatName(attrB)
	m := rel.MeasName(meas)
	v1 := rel.Value(attrB, val)
	v2 := rel.Value(attrB, val2)
	left := GroupBy(SelectEq(Scan(rel), b, v1), []string{a}, AggSpec{Agg: agg, Col: m, As: "left"})
	right := GroupBy(SelectEq(Scan(rel), b, v2), []string{a}, AggSpec{Agg: agg, Col: m, As: "right"})
	return Project(SortBy(JoinOn(left, right, a), a), a, "left", "right")
}
