// Package sqlgen renders comparison queries (Figure 2) and hypothesis
// queries (Figure 3) as portable SQL text. The generated strings are what
// the notebooks ship to the user: the in-process engine executes the same
// logical plans, and the SQL is the user-facing artifact.
package sqlgen

import (
	"fmt"
	"strings"

	"comparenb/internal/engine"
	"comparenb/internal/table"
)

// Params identifies one comparison query (A, B, val, val', M, agg) against
// a relation, by attribute/measure index and dictionary codes.
type Params struct {
	GroupBy int   // A: grouping attribute index
	SelAttr int   // B: selection attribute index
	Val     int32 // code of val in dom(B)
	Val2    int32 // code of val'
	Meas    int   // M: measure index
	Agg     engine.Agg
}

// Comparison renders the join-form comparison query of Definition 3.1, in
// the exact shape of the paper's Figure 2.
func Comparison(rel *table.Relation, p Params) string {
	var sb strings.Builder
	writeComparisonBody(&sb, rel, p, "")
	sb.WriteString(";")
	return sb.String()
}

// HypothesisKind names the insight type a hypothesis query postulates.
type HypothesisKind int

const (
	// MeanGreater postulates avg(val) > avg(val').
	MeanGreater HypothesisKind = iota
	// VarianceGreater postulates variance(val) > variance(val').
	VarianceGreater
	// MedianGreater postulates median(val) > median(val') — the extension
	// insight type (§7 future work).
	MedianGreater
)

// Label returns the human-readable hypothesis label used in the SQL
// projection ('mean greater' as hypothesis).
func (k HypothesisKind) Label() string {
	switch k {
	case MeanGreater:
		return "mean greater"
	case VarianceGreater:
		return "variance greater"
	default:
		return "median greater"
	}
}

// predicate renders the HAVING comparison for the two series columns.
func (k HypothesisKind) predicate(c1, c2 string) string {
	switch k {
	case MeanGreater:
		return fmt.Sprintf("avg(%s) > avg(%s)", c1, c2)
	case VarianceGreater:
		return fmt.Sprintf("var_samp(%s) > var_samp(%s)", c1, c2)
	default:
		return fmt.Sprintf(
			"percentile_cont(0.5) within group (order by %s) > percentile_cont(0.5) within group (order by %s)",
			c1, c2)
	}
}

// Hypothesis renders the hypothesis query π_{τ→hypothesis}(σ_p(q)) of
// Definition 3.7, in the shape of the paper's Figure 3: the comparison
// query as a CTE, then a HAVING clause testing the insight predicate.
func Hypothesis(rel *table.Relation, p Params, kind HypothesisKind) string {
	var sb strings.Builder
	sb.WriteString("with comparison as\n(")
	writeComparisonBody(&sb, rel, p, "  ")
	sb.WriteString(")\n")
	c1, c2 := columnAliases(rel, p)
	fmt.Fprintf(&sb, "select '%s' as hypothesis from comparison\nhaving %s;",
		kind.Label(), kind.predicate(c1, c2))
	return sb.String()
}

func writeComparisonBody(sb *strings.Builder, rel *table.Relation, p Params, indent string) {
	a := quoteIdent(rel.CatName(p.GroupBy))
	b := quoteIdent(rel.CatName(p.SelAttr))
	m := quoteIdent(rel.MeasName(p.Meas))
	relName := quoteIdent(rel.Name())
	c1, c2 := columnAliases(rel, p)
	v1 := quoteValue(rel.Value(p.SelAttr, p.Val))
	v2 := quoteValue(rel.Value(p.SelAttr, p.Val2))
	aggExpr := func(alias string) string {
		if p.Agg == engine.Count {
			return "count(*) as " + alias
		}
		return fmt.Sprintf("%s(%s) as %s", p.Agg, m, alias)
	}
	fmt.Fprintf(sb, "%sselect t1.%s, %s, %s\n", indent, a, c1, c2)
	fmt.Fprintf(sb, "%sfrom\n", indent)
	fmt.Fprintf(sb, "%s  (select %s, %s, %s\n", indent, b, a, aggExpr(c1))
	fmt.Fprintf(sb, "%s   from %s where %s = %s group by %s, %s) t1,\n", indent, relName, b, v1, b, a)
	fmt.Fprintf(sb, "%s  (select %s, %s, %s\n", indent, b, a, aggExpr(c2))
	fmt.Fprintf(sb, "%s   from %s where %s = %s group by %s, %s) t2\n", indent, relName, b, v2, b, a)
	fmt.Fprintf(sb, "%swhere t1.%s = t2.%s\n", indent, a, a)
	fmt.Fprintf(sb, "%sorder by t1.%s", indent, a)
}

// columnAliases derives the SQL column aliases of the two sides from
// their selection values, e.g. month '4' → "v_4", continent 'America' →
// "America". An empty alias becomes v_l or v_r. An alias equal ignoring
// case (SQL folds unquoted names) to the other one ('a-b' and 'a_b', '1'
// and 'v_1', 'Paris' and 'paris') or to A's or B's name (month value
// 'continent' grouped by continent) would make the select list
// ambiguous, so both aliases get their side tag, _l and _r.
func columnAliases(rel *table.Relation, p Params) (c1, c2 string) {
	c1 = sanitizeIdent(rel.Value(p.SelAttr, p.Val))
	c2 = sanitizeIdent(rel.Value(p.SelAttr, p.Val2))
	if c1 == "" {
		c1 = "v_l"
	}
	if c2 == "" {
		c2 = "v_r"
	}
	a, b := rel.CatName(p.GroupBy), rel.CatName(p.SelAttr)
	collides := func(c string) bool { return strings.EqualFold(c, a) || strings.EqualFold(c, b) }
	if strings.EqualFold(c1, c2) || collides(c1) || collides(c2) {
		c1, c2 = c1+"_l", c2+"_r"
	}
	return c1, c2
}

func sanitizeIdent(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if sb.Len() == 0 {
				sb.WriteString("v_")
			}
			sb.WriteRune(r)
		default:
			sb.WriteRune('_')
		}
	}
	return sb.String()
}

// quoteIdent double-quotes an identifier when it is not a plain lowercase
// SQL name.
func quoteIdent(s string) string {
	plain := s != ""
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// quoteValue single-quotes a SQL string literal.
func quoteValue(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
