package stats

import (
	"context"
	"math"
	"testing"
)

// naiveStatistic recomputes a permutation's statistic the obvious
// O(nx+ny) way — materialise both sides, then call the descriptive
// helpers — with none of the pooled-moment algebra the production path
// uses. It is the differential reference for FuzzPValue.
func naiveStatistic(nx, ny int, pooled []float64, xIdx []int32, stat TestStat) float64 {
	xs := make([]float64, 0, nx)
	ys := make([]float64, 0, ny)
	if xIdx == nil {
		xs = append(xs, pooled[:nx]...)
		ys = append(ys, pooled[nx:]...)
	} else {
		inX := make([]bool, len(pooled))
		for _, i := range xIdx {
			inX[i] = true
			xs = append(xs, pooled[i])
		}
		for i, v := range pooled {
			if !inX[i] {
				ys = append(ys, v)
			}
		}
	}
	switch stat {
	case MeanDiff:
		return math.Abs(Mean(xs) - Mean(ys))
	case VarDiff:
		// Population variance, matching the pooled-moment formula
		// E[v²] − E[v]² used by the production statistic.
		popVar := func(v []float64) float64 {
			m := Mean(v)
			s := 0.0
			for _, x := range v {
				s += (x - m) * (x - m)
			}
			return s / float64(len(v))
		}
		return math.Abs(popVar(xs) - popVar(ys))
	case MedianDiff:
		return math.Abs(Median(xs) - Median(ys))
	default:
		panic("unknown stat")
	}
}

// FuzzPValue cross-checks the optimised permutation test against the
// naive reference on fuzzer-built pools. The production path derives the
// Y side from pooled totals, so individual statistics are only equal up
// to floating-point reordering; the assertion therefore brackets the
// production exceedance count between the reference's strict and loose
// counts over a replay of the same seeded draws, instead of demanding
// bit equality. Thread counts 1 and 3 must agree exactly — that IS
// bit-level.
func FuzzPValue(f *testing.F) {
	f.Add([]byte{4, 3, 0}, int64(1))
	f.Add([]byte{2, 2, 1, 10, 20, 30, 250}, int64(42))
	f.Add([]byte{8, 5, 2, 1, 1, 1, 1, 200, 200, 200, 200}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 3 {
			return
		}
		nx := 2 + int(data[0])%8
		ny := 2 + int(data[1])%8
		stat := TestStat(int(data[2]) % 3)
		pooled := make([]float64, nx+ny)
		body := data[3:]
		for i := range pooled {
			b := byte(i * 37)
			if len(body) > 0 {
				b = body[i%len(body)]
			}
			pooled[i] = float64(b) / 16.0
		}
		const nperm = 160
		tests := []PermTest{{Pooled: pooled, Stat: stat}}
		res, err := PermTests(context.Background(), nx, ny, nperm, seed, 1, 0, tests)
		if err != nil {
			t.Fatal(err)
		}
		res3, err := PermTests(context.Background(), nx, ny, nperm, seed, 3, 0, tests)
		if err != nil {
			t.Fatal(err)
		}
		obs, pv := res[0].Obs, res[0].P
		// exact: thread-count independence is an exact, bit-level contract
		if obs != res3[0].Obs || pv != res3[0].P {
			t.Fatalf("thread dependence: (%v,%v) threads=1 vs (%v,%v) threads=3", obs, pv, res3[0].Obs, res3[0].P)
		}
		if pv <= 0 || pv > 1 || math.IsNaN(pv) {
			t.Fatalf("p-value out of (0,1]: %v", pv)
		}

		refObs := naiveStatistic(nx, ny, pooled, nil, stat)
		if math.Abs(obs-refObs) > 1e-9*(1+math.Abs(refObs)) {
			t.Fatalf("observed statistic: production %v vs naive %v", obs, refObs)
		}
		// Bracket the production count: strict (naive stat clearly above
		// obs) ≤ production ≤ loose (naive stat not clearly below), over
		// the kernel's own block draws replayed in order.
		tol := 1e-9 * (1 + math.Abs(refObs))
		strict, loose := 0, 0
		w := newPermWorker(nx, ny, false)
		for k := 0; k < nperm; k++ {
			if k%permBlock == 0 {
				w.startBlock(seed, k/permBlock)
			}
			s := naiveStatistic(nx, ny, pooled, w.nextPerm(nx), stat)
			if s >= refObs+tol {
				strict++
			}
			if s >= refObs-tol {
				loose++
			}
		}
		got := int(math.Round(pv*float64(1+nperm))) - 1
		if got < strict || got > loose {
			t.Fatalf("exceedance count %d outside naive bracket [%d, %d] (stat=%v)", got, strict, loose, stat)
		}
	})
}

// FuzzTTest checks the t-test invariants on fuzzer-built samples:
// p-values stay in [0,1], Welch is symmetric in its arguments bit for
// bit, and a sample compared with itself is never significant.
func FuzzTTest(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8})
	f.Add([]byte{0, 0}, []byte{255, 255, 255})
	f.Add([]byte{7}, []byte{})
	f.Fuzz(func(t *testing.T, bx, by []byte) {
		decode := func(bs []byte) []float64 {
			out := make([]float64, len(bs))
			for i, b := range bs {
				out[i] = float64(int(b)-128) / 8.0
			}
			return out
		}
		x, y := decode(bx), decode(by)

		w := WelchT(x, y)
		if w.P < 0 || w.P > 1 || math.IsNaN(w.P) {
			t.Fatalf("WelchT p-value out of range: %+v", w)
		}
		rev := WelchT(y, x)
		// exact: argument symmetry of Welch's t is exact: the statistic only negates
		if w.P != rev.P {
			t.Fatalf("WelchT asymmetric: p=%v vs reversed p=%v", w.P, rev.P)
		}
		if !math.IsNaN(w.T) && !math.IsNaN(rev.T) && math.Abs(w.T+rev.T) > 1e-12*(1+math.Abs(w.T)) {
			t.Fatalf("WelchT statistic not negated on swap: %v vs %v", w.T, rev.T)
		}

		self := WelchT(x, x)
		// exact: t = 0 gives I_1(df/2, 1/2) = 1 exactly, and degenerate samples P = 1 by contract
		if self.P != 1 {
			t.Fatalf("WelchT(x, x).P = %v, want 1", self.P)
		}
	})
}
