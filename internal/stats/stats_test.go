package stats

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// pvalue runs one eager permutation test on a stream seeded from rng.
func pvalue(t *testing.T, rng *rand.Rand, nx, ny, nperm int, pooled []float64, stat TestStat) (obs, p float64) {
	t.Helper()
	r := permTest1(t, nx, ny, nperm, rng.Int63(), 1, 0, pooled, stat)
	return r.Obs, r.P
}

func TestDescriptive(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Sum(x); got != 40 {
		t.Errorf("Sum = %v, want 40", got)
	}
	if got := PopVariance(x); got != 4 {
		t.Errorf("PopVariance = %v, want 4", got)
	}
	if got := Variance(x); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(x); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestDescriptiveDegenerate(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of a single value should be NaN")
	}
	if got := PopVariance([]float64{3}); got != 0 {
		t.Errorf("PopVariance single value = %v, want 0", got)
	}
}

func TestPermTestDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nx, ny := 60, 60
	pooled := make([]float64, 0, nx+ny)
	for i := 0; i < nx; i++ {
		pooled = append(pooled, rng.NormFloat64())
	}
	for i := 0; i < ny; i++ {
		pooled = append(pooled, rng.NormFloat64()+2.0) // big shift
	}
	obs, p := pvalue(t, rng, nx, ny, 500, pooled, MeanDiff)
	if obs < 1.5 {
		t.Errorf("observed |mean diff| = %v, want around 2", obs)
	}
	if p > 0.01 {
		t.Errorf("p = %v, want highly significant", p)
	}
}

func TestPermTestNullIsUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Under H0, p-values should be roughly uniform: their mean over many
	// repetitions should be near 0.5, and very few should be < 0.05.
	reps := 200
	small := 0
	sum := 0.0
	for r := 0; r < reps; r++ {
		nx, ny := 25, 25
		pooled := make([]float64, nx+ny)
		for i := range pooled {
			pooled[i] = rng.NormFloat64()
		}
		_, p := pvalue(t, rng, nx, ny, 120, pooled, MeanDiff)
		sum += p
		if p < 0.05 {
			small++
		}
	}
	if mean := sum / float64(reps); mean < 0.4 || mean > 0.6 {
		t.Errorf("mean null p-value = %v, want ≈ 0.5", mean)
	}
	if float64(small)/float64(reps) > 0.12 {
		t.Errorf("%d/%d null p-values < 0.05, want ≈ 5%%", small, reps)
	}
}

func TestPermTestDetectsVarianceShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nx, ny := 80, 80
	pooled := make([]float64, 0, nx+ny)
	for i := 0; i < nx; i++ {
		pooled = append(pooled, rng.NormFloat64()*5)
	}
	for i := 0; i < ny; i++ {
		pooled = append(pooled, rng.NormFloat64()*0.5)
	}
	_, p := pvalue(t, rng, nx, ny, 500, pooled, VarDiff)
	if p > 0.01 {
		t.Errorf("variance-shift p = %v, want highly significant", p)
	}
}

func TestPermSharedAcrossMeasures(t *testing.T) {
	// One stream must serve different measure vectors: every test's
	// result depends only on its own pool and the stream, so sharing
	// changes nothing and a repeated vector gives the same bits.
	m1 := make([]float64, 22)
	m2 := make([]float64, 22)
	for i := range m1 {
		m1[i] = float64(i)
		m2[i] = float64(i * i)
	}
	shared, err := PermTests(context.Background(), 10, 12, 100, 5, 1, 0,
		[]PermTest{{Pooled: m1, Stat: MeanDiff}, {Pooled: m2, Stat: MeanDiff}, {Pooled: m1, Stat: MeanDiff}})
	if err != nil {
		t.Fatal(err)
	}
	if shared[0] != shared[2] {
		t.Errorf("same vector on one stream: %+v vs %+v", shared[0], shared[2])
	}
	for i, pooled := range [][]float64{m1, m2} {
		alone := permTest1(t, 10, 12, 100, 5, 1, 0, pooled, MeanDiff)
		if alone != shared[i] {
			t.Errorf("measure %d: alone %+v, shared %+v", i, alone, shared[i])
		}
		if alone.P <= 0 {
			t.Error("smoothed p-values must be strictly positive")
		}
	}
}

func TestPermPValueBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nx := 2 + r.Intn(20)
		ny := 2 + r.Intn(20)
		pooled := make([]float64, nx+ny)
		for i := range pooled {
			pooled[i] = r.NormFloat64()
		}
		for _, st := range []TestStat{MeanDiff, VarDiff} {
			_, p := pvalue(t, rng, nx, ny, 60, pooled, st)
			if p <= 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPermEmptySide(t *testing.T) {
	r := permTest1(t, 0, 5, 10, 1, 1, 0, make([]float64, 5), MeanDiff)
	if !math.IsNaN(r.Obs) || r.P != 1 {
		t.Errorf("empty side: obs=%v p=%v, want NaN, 1", r.Obs, r.P)
	}
}

func TestPermPooledLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched pooled length did not panic")
		}
	}()
	_, _ = PermTests(context.Background(), 3, 3, 10, 1, 1, 0, []PermTest{{Pooled: make([]float64, 5), Stat: MeanDiff}})
}

func TestBenjaminiHochbergKnown(t *testing.T) {
	// Worked example: raw p = {0.01, 0.04, 0.03, 0.005}.
	// sorted: 0.005, 0.01, 0.03, 0.04 → raw q: 0.02, 0.02, 0.04, 0.04.
	p := []float64{0.01, 0.04, 0.03, 0.005}
	q := BenjaminiHochberg(p)
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range q {
		if !almostEqual(q[i], want[i], 1e-12) {
			t.Errorf("q[%d] = %v, want %v", i, q[i], want[i])
		}
	}
}

func TestBenjaminiHochbergProperties(t *testing.T) {
	f := func(raw []float64) bool {
		p := make([]float64, len(raw))
		for i, v := range raw {
			p[i] = math.Abs(math.Mod(v, 1)) // clamp into [0,1)
		}
		q := BenjaminiHochberg(p)
		if len(q) != len(p) {
			return false
		}
		for i := range q {
			// q ≥ p (BH never makes p-values more significant) and q ≤ 1.
			if q[i] < p[i]-1e-12 || q[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBenjaminiHochbergMonotone(t *testing.T) {
	p := []float64{0.001, 0.002, 0.01, 0.2, 0.9}
	q := BenjaminiHochberg(p)
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			t.Errorf("adjusted q not monotone over sorted p: %v", q)
		}
	}
}

func TestWelchTKnownValue(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	res := WelchT(x, y)
	if !almostEqual(res.T, -1.8973665961, 1e-9) {
		t.Errorf("T = %v, want -1.8974", res.T)
	}
	if !almostEqual(res.DF, 5.8823529412, 1e-9) {
		t.Errorf("DF = %v, want 5.8824", res.DF)
	}
	if res.P < 0.09 || res.P > 0.13 {
		t.Errorf("P = %v, want ≈ 0.108", res.P)
	}
}

func TestWelchTIdenticalSamples(t *testing.T) {
	x := []float64{3, 3, 3}
	res := WelchT(x, x)
	if res.P != 1 || res.T != 0 {
		t.Errorf("identical zero-variance samples: T=%v P=%v", res.T, res.P)
	}
	res = WelchT([]float64{1, 1, 1}, []float64{2, 2, 2})
	if res.P != 0 {
		t.Errorf("separated zero-variance samples: P=%v, want 0", res.P)
	}
}

func TestWelchTSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 20)
	y := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64() + 0.5
	}
	a, b := WelchT(x, y), WelchT(y, x)
	if !almostEqual(a.T, -b.T, 1e-12) || !almostEqual(a.P, b.P, 1e-12) {
		t.Errorf("asymmetry: (%v,%v) vs (%v,%v)", a.T, a.P, b.T, b.P)
	}
}

func TestWelchTSmallSamples(t *testing.T) {
	res := WelchT([]float64{1}, []float64{2, 3})
	if res.P != 1 {
		t.Errorf("undersized sample: P=%v, want 1", res.P)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := regIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := regIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.37, 0.5, 0.92} {
		if got := regIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	for _, x := range []float64{0.2, 0.6} {
		a, b := 2.5, 4.0
		if got := regIncBeta(a, b, x) + regIncBeta(b, a, 1-x); !almostEqual(got, 1, 1e-10) {
			t.Errorf("symmetry violated at x=%v: %v", x, got)
		}
	}
}

func TestStudentTTwoSidedMonotone(t *testing.T) {
	// p must decrease as |t| grows.
	prev := 1.0
	for _, tv := range []float64{0, 0.5, 1, 2, 4, 8} {
		p := studentTTwoSided(tv, 10)
		if p > prev+1e-12 {
			t.Errorf("p(t=%v) = %v not monotone", tv, p)
		}
		prev = p
	}
	if p := studentTTwoSided(0, 10); !almostEqual(p, 1, 1e-10) {
		t.Errorf("p(t=0) = %v, want 1", p)
	}
}
