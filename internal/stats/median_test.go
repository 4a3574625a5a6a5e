package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedianKnown(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2}, 1.5},
		{[]float64{2, 1, 3}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5, 5}, 5},
		{[]float64{-1, 0, 1}, 0},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{9, 1, 5, 3, 7}
	Median(in)
	want := []float64{9, 1, 5, 3, 7}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("input mutated: %v", in)
		}
	}
}

// Property: Median agrees with the sort-based definition.
func TestQuickMedianMatchesSort(t *testing.T) {
	f := func(in []float64) bool {
		clean := in[:0:0]
		for _, v := range in {
			if !math.IsNaN(v) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		got := Median(clean)
		s := append([]float64(nil), clean...)
		sort.Float64s(s)
		var want float64
		n := len(s)
		if n%2 == 1 {
			want = s[n/2]
		} else {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		return got == want || math.Abs(got-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickselectAllPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		in := make([]float64, n)
		for i := range in {
			in[i] = math.Floor(rng.Float64() * 10) // duplicates likely
		}
		s := append([]float64(nil), in...)
		sort.Float64s(s)
		for k := 0; k < n; k++ {
			buf := append([]float64(nil), in...)
			if got := quickselect(buf, k); got != s[k] {
				t.Fatalf("quickselect(%v, %d) = %v, want %v", in, k, got, s[k])
			}
		}
	}
}

func TestPermTestDetectsMedianShift(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nx, ny := 60, 60
	pooled := make([]float64, 0, nx+ny)
	for i := 0; i < nx; i++ {
		pooled = append(pooled, rng.NormFloat64())
	}
	for i := 0; i < ny; i++ {
		pooled = append(pooled, rng.NormFloat64()+2)
	}
	obs, p := pvalue(t, rng, nx, ny, 300, pooled, MedianDiff)
	if obs < 1.2 {
		t.Errorf("observed |median diff| = %v, want ≈ 2", obs)
	}
	if p > 0.02 {
		t.Errorf("p = %v, want significant", p)
	}
}

func TestMedianDiffNullUniformish(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	small := 0
	reps := 100
	for r := 0; r < reps; r++ {
		pooled := make([]float64, 40)
		for i := range pooled {
			pooled[i] = rng.NormFloat64()
		}
		if _, p := pvalue(t, rng, 20, 20, 100, pooled, MedianDiff); p < 0.05 {
			small++
		}
	}
	if float64(small)/float64(reps) > 0.13 {
		t.Errorf("%d/%d null median p-values < 0.05", small, reps)
	}
}
