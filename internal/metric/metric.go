// Package metric implements §4.2: the manifold interestingness of a
// comparison query (conciseness × significance × surprise) and the
// weighted Hamming distance over query parts.
package metric

import (
	"math"

	"comparenb/internal/insight"
)

// ConcisenessParams are the α and δ of the conciseness function. α sets
// the growth rate of the ideal number of groups given the number of tuples
// (the slope of the ideal ratio); δ spreads the ideal ratio.
type ConcisenessParams struct {
	Alpha float64
	Delta float64
}

// DefaultConciseness mirrors the paper's "empirically tuned" setting: the
// ideal result size is 2% of the aggregated tuples, with a spread that
// keeps the score discriminative across four orders of magnitude of θ.
var DefaultConciseness = ConcisenessParams{Alpha: 0.02, Delta: 1}

// Conciseness evaluates the paper's non-monotonic conciseness function
//
//	conciseness(θ, γ) = exp( −(γ − θα)² / θ^δ )
//
// where θ is the number of tuples aggregated by the query and γ the number
// of groups in its result. γ > θ makes no sense in grouping and scores 0;
// θ = 0 also scores 0 (an empty comparison is never concise).
func Conciseness(theta, gamma int, p ConcisenessParams) float64 {
	if theta <= 0 || gamma > theta || gamma <= 0 {
		return 0
	}
	t := float64(theta)
	g := float64(gamma)
	d := g - t*p.Alpha
	return math.Exp(-(d * d) / math.Pow(t, p.Delta))
}

// InterestParams bundles the knobs of Def. 4.3.
type InterestParams struct {
	// Omega is ω, the weight ruling the importance of sig(i).
	Omega float64
	// Conciseness holds α and δ.
	Conciseness ConcisenessParams
	// UseConciseness, UseCredibility allow the ablations used by the user
	// study variants (Table 7): WSC-approx-sig drops both, and
	// WSC-approx-sig-cred keeps credibility only.
	UseConciseness bool
	UseCredibility bool
}

// DefaultInterest is the full interestingness of Def. 4.3.
var DefaultInterest = InterestParams{
	Omega:          1,
	Conciseness:    DefaultConciseness,
	UseConciseness: true,
	UseCredibility: true,
}

// Interest evaluates Def. 4.3 for a query supporting the given insights:
//
//	interest(q) = conciseness(θ, γ) × Σ_{i∈I_q} ω · sig(i) · (1 − cred(i)/|Qⁱ|)
//
// The (1 − cred/|Qⁱ|) factor is the probability of the insight being a
// type II error — the surprise of the insight: the fewer queries support
// it, the more surprising seeing it is.
func Interest(theta, gamma int, supported []insight.Insight, p InterestParams) float64 {
	sum := 0.0
	for _, i := range supported {
		term := p.Omega * i.Sig
		if p.UseCredibility && i.NumHypo > 0 {
			term *= 1 - float64(i.Credibility)/float64(i.NumHypo)
		}
		sum += term
	}
	if p.UseConciseness {
		sum *= Conciseness(theta, gamma, p.Conciseness)
	}
	return sum
}

// Weights are the part weights of the distance: "val, val' the highest,
// followed by B, then A, and finally M and agg have the lowest impact".
type Weights struct {
	Val, Val2, B, A, M, Agg float64
}

// DefaultWeights follows the ordering prescribed in §4.2.
var DefaultWeights = Weights{Val: 4, Val2: 4, B: 3, A: 2, M: 1, Agg: 1}

// UniformWeights is the ablation where every query part counts equally.
var UniformWeights = Weights{Val: 1, Val2: 1, B: 1, A: 1, M: 1, Agg: 1}

func (w Weights) total() float64 { return w.Val + w.Val2 + w.B + w.A + w.M + w.Agg }

// Distance is the weighted Hamming distance between two comparison
// queries, normalised to [0, 1]. Two selection values only count as equal
// when they denote the same value of the same attribute (codes from
// different attributes are incomparable), which keeps equality transitive
// and the distance a metric — the triangle inequality the TAP formulation
// requires (§4.2).
func Distance(q1, q2 insight.Query, w Weights) float64 {
	d := 0.0
	sameB := q1.Attr == q2.Attr
	if !sameB {
		d += w.B
	}
	if !sameB || q1.Val != q2.Val {
		d += w.Val
	}
	if !sameB || q1.Val2 != q2.Val2 {
		d += w.Val2
	}
	if q1.GroupBy != q2.GroupBy {
		d += w.A
	}
	if q1.Meas != q2.Meas {
		d += w.M
	}
	if q1.Agg != q2.Agg {
		d += w.Agg
	}
	return d / w.total()
}
