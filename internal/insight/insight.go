// Package insight implements the logical framework of §3: comparison
// queries (Def. 3.1), insights and their types (Def. 3.4), hypothesis
// queries (Def. 3.7), the support relation ⊢ (Def. 3.8), significance
// (Def. 3.9), credibility (Def. 3.11), and the transitivity pruning of
// §3.3.
package insight

import (
	"fmt"

	"comparenb/internal/engine"
	"comparenb/internal/stats"
	"comparenb/internal/table"
)

// Type is an insight type: the name giving the semantics of an insight
// (Def. 3.4). The paper instantiates two.
type Type int

const (
	// MeanGreater is type M: avg(val) > avg(val').
	MeanGreater Type = iota
	// VarianceGreater is type V: variance(val) > variance(val').
	VarianceGreater
	// MedianGreater is the extension type of §7 ("our approach can be
	// extended to other forms of insights"): median(val) > median(val'),
	// tested with the |median(X) − median(Y)| permutation statistic. Not
	// enabled by default — the paper's T = 2.
	MedianGreater
)

// AllTypes lists the paper's insight types; its length is the paper's T.
var AllTypes = []Type{MeanGreater, VarianceGreater}

// ExtendedTypes additionally enables the median-greater extension.
var ExtendedTypes = []Type{MeanGreater, VarianceGreater, MedianGreater}

func (t Type) String() string {
	switch t {
	case MeanGreater:
		return "mean greater"
	case VarianceGreater:
		return "variance greater"
	case MedianGreater:
		return "median greater"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// TestStat returns the permutation-test statistic of Table 1 for the type.
func (t Type) TestStat() stats.TestStat {
	switch t {
	case MeanGreater:
		return stats.MeanDiff
	case VarianceGreater:
		return stats.VarDiff
	default:
		return stats.MedianDiff
	}
}

// Insight is a tuple i = (M, B, val, val', p) (Def. 3.4), oriented so that
// the predicate reads "Val's statistic is greater than Val2's". Sig and
// Credibility are filled by the pipeline.
type Insight struct {
	Meas int   // M: measure index
	Attr int   // B: selection attribute index
	Val  int32 // val (the greater side)
	Val2 int32 // val'
	Type Type

	// Sig is the significance sig(i) = 1 − p with p the BH-adjusted
	// permutation p-value (Def. 3.9 + §5.1.1).
	Sig float64
	// Effect is the observed effect size on the test relation: Cohen's d
	// ((μval − μval')/pooled σ) for mean- and median-greater insights, and
	// the variance ratio σ²val/σ²val' for variance-greater ones. Always
	// ≥ 0 (d) or ≥ 1 (ratio) thanks to the orientation. Purely
	// informational — interestingness (Def. 4.3) does not use it.
	Effect float64
	// Credibility is the number of hypothesis queries supporting i
	// (Def. 3.11): the number of grouping attributes A for which some
	// aggregate's hypothesis query supports i.
	Credibility int
	// NumHypo is |Qⁱ|: the number of candidate hypothesis queries, n−1
	// minus the grouping attributes excluded by FD pre-processing.
	NumHypo int
}

// Key identifies an insight independently of its statistics, for use as a
// map key.
type Key struct {
	Meas int
	Attr int
	Val  int32
	Val2 int32
	Type Type
}

// Key returns the identifying key of the insight.
func (i Insight) Key() Key {
	return Key{Meas: i.Meas, Attr: i.Attr, Val: i.Val, Val2: i.Val2, Type: i.Type}
}

// Describe renders the insight as the natural-language declaration the
// paper uses ("On average there were more COVID cases in May compared to
// April").
func (i Insight) Describe(rel *table.Relation) string {
	stat := "average"
	switch i.Type {
	case VarianceGreater:
		stat = "variance of"
	case MedianGreater:
		stat = "median"
	}
	return fmt.Sprintf("The %s %s is greater for %s = %s than for %s = %s (sig %.3f, credibility %d/%d)",
		stat, rel.MeasName(i.Meas),
		rel.CatName(i.Attr), rel.Value(i.Attr, i.Val),
		rel.CatName(i.Attr), rel.Value(i.Attr, i.Val2),
		i.Sig, i.Credibility, i.NumHypo)
}

// Query is the 6-tuple (A, B, val, val', M, agg) describing a comparison
// query (Def. 3.1).
type Query struct {
	GroupBy int   // A
	Attr    int   // B
	Val     int32 // val
	Val2    int32 // val'
	Meas    int   // M
	Agg     engine.Agg
}

// Describe renders the query in words.
func (q Query) Describe(rel *table.Relation) string {
	return fmt.Sprintf("%s(%s) by %s: %s = %s vs %s",
		q.Agg, rel.MeasName(q.Meas), rel.CatName(q.GroupBy),
		rel.CatName(q.Attr), rel.Value(q.Attr, q.Val), rel.Value(q.Attr, q.Val2))
}

// Supports implements Def. 3.8 on a materialised comparison result: the
// hypothesis query's selection σ_p holds iff the insight-type statistic of
// the val series exceeds that of the val' series. An empty result supports
// nothing (no comparison a user sees could trigger the insight).
func Supports(res *engine.ComparisonResult, typ Type) bool {
	if res.Len() == 0 {
		return false
	}
	switch typ {
	case MeanGreater:
		return stats.Mean(res.Left) > stats.Mean(res.Right)
	case VarianceGreater:
		if res.Len() < 2 {
			return false
		}
		return stats.Variance(res.Left) > stats.Variance(res.Right)
	case MedianGreater:
		return stats.Median(res.Left) > stats.Median(res.Right)
	default:
		panic("insight: unknown type")
	}
}

// CountComparisonQueries evaluates Lemma 3.2: the number of possible
// comparison queries over rel given f aggregation functions.
func CountComparisonQueries(rel *table.Relation, f int) int {
	n := rel.NumCatAttrs()
	m := rel.NumMeasures()
	total := 0
	for a := 0; a < n; a++ {
		d := rel.DomSize(a)
		total += d * (d - 1) / 2 * (n - 1) * m * f
	}
	return total
}

// CountInsights evaluates Lemma 3.5: the number of insights over rel given
// T insight types.
func CountInsights(rel *table.Relation, T int) int {
	n := rel.NumCatAttrs()
	m := rel.NumMeasures()
	total := 0
	for a := 0; a < n; a++ {
		d := rel.DomSize(a)
		total += d * (d - 1) / 2 * m * T
	}
	return total
}
