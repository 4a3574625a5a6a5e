package stats

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// exactCounts enumerates every split of pooled into a side of k rows and
// the rest, and counts the splits whose naive statistic is clearly above
// obs (strict) and not clearly below it (loose), with FuzzPValue's
// tolerance. strict/splits and loose/splits bracket the exact p-value of
// the permutation test.
func exactCounts(pooled []float64, k int, stat TestStat, obs float64) (strict, loose, splits int) {
	n := len(pooled)
	tol := 1e-9 * (1 + math.Abs(obs))
	idx := make([]int32, 0, k)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) != k {
			continue
		}
		idx = idx[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				idx = append(idx, int32(i))
			}
		}
		s := naiveStatistic(k, n-k, pooled, idx, stat)
		if s >= obs+tol {
			strict++
		}
		if s >= obs-tol {
			loose++
		}
		splits++
	}
	return strict, loose, splits
}

// TestPermTestsMatchExactPValue holds the Monte Carlo p-value to the
// exact one: on pools of at most 16 rows, with every split enumerated,
// PermTests' exceedance count over 4,096 permutations must fall within
// 5σ of the binomial count the exact p implies, for all three statistics
// and with the pool in both side orders (X‖Y and Y‖X), so that either
// side is the one drawn. Ties are bracketed by the strict and loose
// exact counts.
func TestPermTestsMatchExactPValue(t *testing.T) {
	const nperm = 4096
	sides := [][2]int{{1, 7}, {2, 9}, {3, 5}, {4, 12}, {5, 11}, {6, 6}, {7, 9}, {8, 8}}
	for si, sd := range sides {
		nx, ny := sd[0], sd[1]
		for kind := 0; kind < 5; kind++ {
			rng := rand.New(rand.NewSource(int64(100*si + kind)))
			xy := pinValues(rng, nx, ny, kind)
			yx := append(append([]float64(nil), xy[nx:]...), xy[:nx]...)
			for _, stat := range []TestStat{MeanDiff, VarDiff, MedianDiff} {
				obs := naiveStatistic(nx, ny, xy, nil, stat)
				strict, loose, splits := exactCounts(xy, nx, stat, obs)
				lo := bracketBound(strict, splits, nperm, -5)
				hi := bracketBound(loose, splits, nperm, 5)
				for _, order := range []struct {
					name   string
					nx, ny int
					pooled []float64
				}{{"X‖Y", nx, ny, xy}, {"Y‖X", ny, nx, yx}} {
					res, err := PermTests(context.Background(), order.nx, order.ny, nperm, int64(7*si+kind), 1, 0,
						[]PermTest{{Pooled: order.pooled, Stat: stat}})
					if err != nil {
						t.Fatal(err)
					}
					got := int(math.Round(res[0].P*(1+nperm))) - 1
					if float64(got) < lo || float64(got) > hi {
						t.Errorf("%d×%d kind %d %s %s: %d of %d permutations exceed, exact p in [%d, %d]/%d allows [%.1f, %.1f]",
							nx, ny, kind, stat, order.name, got, nperm, strict, loose, splits, lo, hi)
					}
				}
			}
		}
	}
}

// bracketBound is the binomial count nperm·p shifted by z standard
// deviations, p = count/splits.
func bracketBound(count, splits, nperm int, z float64) float64 {
	p := float64(count) / float64(splits)
	return float64(nperm)*p + z*math.Sqrt(float64(nperm)*p*(1-p))
}
