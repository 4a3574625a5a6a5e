package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"comparenb/internal/engine"
	"comparenb/internal/insight"
)

func TestConcisenessPeaksAtIdealRatio(t *testing.T) {
	p := ConcisenessParams{Alpha: 0.02, Delta: 1}
	theta := 10000
	ideal := int(0.02 * float64(theta))
	peak := Conciseness(theta, ideal, p)
	if !(peak > 0.99) {
		t.Errorf("conciseness at ideal γ = %v, want ≈ 1", peak)
	}
	if far := Conciseness(theta, 5, p); far >= peak {
		t.Errorf("too few groups should score below the peak: %v >= %v", far, peak)
	}
	if far := Conciseness(theta, 2000, p); far >= peak {
		t.Errorf("too many groups should score below the peak: %v >= %v", far, peak)
	}
}

func TestConcisenessUndefinedZone(t *testing.T) {
	p := DefaultConciseness
	if got := Conciseness(10, 11, p); got != 0 {
		t.Errorf("γ > θ must score 0, got %v", got)
	}
	if got := Conciseness(0, 0, p); got != 0 {
		t.Errorf("θ = 0 must score 0, got %v", got)
	}
	if got := Conciseness(10, 0, p); got != 0 {
		t.Errorf("γ = 0 must score 0, got %v", got)
	}
}

func TestConcisenessRange(t *testing.T) {
	f := func(theta, gamma uint16) bool {
		v := Conciseness(int(theta), int(gamma), DefaultConciseness)
		return v >= 0 && v <= 1 && !math.IsNaN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterestFullFormula(t *testing.T) {
	ins := []insight.Insight{
		{Sig: 0.99, Credibility: 1, NumHypo: 4},
		{Sig: 0.97, Credibility: 4, NumHypo: 4},
	}
	p := DefaultInterest
	theta, gamma := 1000, 20 // ideal ratio for α=0.02 → conciseness 1
	got := Interest(theta, gamma, ins, p)
	want := Conciseness(theta, gamma, p.Conciseness) * (0.99*(1-0.25) + 0.97*0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Interest = %v, want %v", got, want)
	}
}

func TestInterestAblations(t *testing.T) {
	ins := []insight.Insight{{Sig: 0.99, Credibility: 2, NumHypo: 4}}
	sigOnly := InterestParams{Omega: 1}
	if got := Interest(10, 5, ins, sigOnly); got != 0.99 {
		t.Errorf("sig-only interest = %v, want 0.99", got)
	}
	sigCred := InterestParams{Omega: 1, UseCredibility: true}
	if got := Interest(10, 5, ins, sigCred); math.Abs(got-0.99*0.5) > 1e-12 {
		t.Errorf("sig+cred interest = %v, want %v", got, 0.99*0.5)
	}
}

func TestInterestOmegaScales(t *testing.T) {
	ins := []insight.Insight{{Sig: 0.95, NumHypo: 2}}
	p := InterestParams{Omega: 3}
	if got := Interest(10, 5, ins, p); math.Abs(got-3*0.95) > 1e-12 {
		t.Errorf("omega-scaled interest = %v", got)
	}
}

func TestInterestEmptyInsights(t *testing.T) {
	if got := Interest(10, 5, nil, DefaultInterest); got != 0 {
		t.Errorf("no insights → interest %v, want 0", got)
	}
}

func randQuery(rng *rand.Rand) insight.Query {
	return insight.Query{
		GroupBy: rng.Intn(4),
		Attr:    rng.Intn(4),
		Val:     int32(rng.Intn(5)),
		Val2:    int32(rng.Intn(5)),
		Meas:    rng.Intn(3),
		Agg:     engine.AllAggs[rng.Intn(len(engine.AllAggs))],
	}
}

func TestDistanceIdentityAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		q1, q2 := randQuery(rng), randQuery(rng)
		if d := Distance(q1, q1, DefaultWeights); d != 0 {
			t.Fatalf("d(q,q) = %v", d)
		}
		d12 := Distance(q1, q2, DefaultWeights)
		d21 := Distance(q2, q1, DefaultWeights)
		if d12 != d21 {
			t.Fatalf("asymmetric: %v vs %v", d12, d21)
		}
		if d12 < 0 || d12 > 1 {
			t.Fatalf("out of range: %v", d12)
		}
		if q1 != q2 && d12 == 0 {
			t.Fatalf("distinct queries at distance 0: %+v %+v", q1, q2)
		}
	}
}

// TestDistanceTriangleInequality verifies the property §4.2 insists on: a
// proper metric so the TAP never trades interestingness for distance.
func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []Weights{DefaultWeights, UniformWeights} {
		for k := 0; k < 2000; k++ {
			a, b, c := randQuery(rng), randQuery(rng), randQuery(rng)
			dab := Distance(a, b, w)
			dbc := Distance(b, c, w)
			dac := Distance(a, c, w)
			if dac > dab+dbc+1e-12 {
				t.Fatalf("triangle violated: d(a,c)=%v > %v+%v; a=%+v b=%+v c=%+v", dac, dab, dbc, a, b, c)
			}
		}
	}
}

func TestDistanceOrderingOfParts(t *testing.T) {
	base := insight.Query{GroupBy: 0, Attr: 1, Val: 0, Val2: 1, Meas: 0, Agg: engine.Sum}
	w := DefaultWeights
	chVal := base
	chVal.Val = 2
	chA := base
	chA.GroupBy = 2
	chAgg := base
	chAgg.Agg = engine.Avg
	dVal := Distance(base, chVal, w)
	dA := Distance(base, chA, w)
	dAgg := Distance(base, chAgg, w)
	if !(dVal > dA && dA > dAgg) {
		t.Errorf("part ordering violated: val=%v A=%v agg=%v", dVal, dA, dAgg)
	}
	// Changing B implies changing the selection values too: the largest
	// single-part jump.
	chB := base
	chB.Attr = 2
	if dB := Distance(base, chB, w); !(dB > dVal) {
		t.Errorf("changing B (%v) must cost more than changing one value (%v)", dB, dVal)
	}
}
