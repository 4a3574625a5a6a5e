package stats

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

func benchPool(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// benchPermTest times one PermTests call per iteration — the draw and
// the scoring, as the pipeline pays them.
func benchPermTest(b *testing.B, n, nperm, threads int, stat TestStat) {
	tests := []PermTest{{Pooled: benchPool(2*n, 2), Stat: stat}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PermTests(context.Background(), n, n, nperm, 1, threads, 0, tests); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermTestMean(b *testing.B) { benchPermTest(b, 1000, 200, 1, MeanDiff) }

func BenchmarkPermTestVariance(b *testing.B) { benchPermTest(b, 1000, 200, 1, VarDiff) }

func BenchmarkPermTestMedian(b *testing.B) { benchPermTest(b, 200, 100, 1, MedianDiff) }

// pairTests is one value pair of a 24-value attribute as a 5,000-row
// relation's stats phase meets it: 208 rows a side, two measures sharing
// one stream, a mean and a variance test on each.
func pairTests() (n int, tests []PermTest) {
	n = 208
	for m := 0; m < 2; m++ {
		pooled := benchPool(2*n, int64(5+m))
		tests = append(tests, PermTest{Pooled: pooled, Stat: MeanDiff}, PermTest{Pooled: pooled, Stat: VarDiff})
	}
	return n, tests
}

// BenchmarkPermTestsPair scores pairTests over 30 permutations on one
// thread.
func BenchmarkPermTestsPair(b *testing.B) {
	n, tests := pairTests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PermTests(context.Background(), n, n, 30, 1, 1, 0, tests); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPermTestsPairSkewed is BenchmarkPermTestsPair with the pair's
// 416 rows split 312 to 104, a frequent value against a rare one: a
// permutation draws the 104 rows of the smaller side.
func BenchmarkPermTestsPairSkewed(b *testing.B) {
	n, tests := pairTests()
	nx := 3 * n / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PermTests(context.Background(), nx, 2*n-nx, 30, 1, 1, 0, tests); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockSeed times one block's seeding: the ring of its stream's
// first 607 outputs.
func BenchmarkBlockSeed(b *testing.B) {
	var ring [rngLen]uint64
	for i := 0; i < b.N; i++ {
		seedRing(&ring, mixSeed(1, int64(i)))
	}
}

func BenchmarkBenjaminiHochberg(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ps := make([]float64, 10000)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BenjaminiHochberg(ps)
	}
}

func BenchmarkMedianQuickselect(b *testing.B) {
	xs := benchPool(10000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Median(xs)
	}
}

// BenchmarkPermTestMeanParallel runs the same test at several worker
// widths; the p-value is bit-identical at every width.
func BenchmarkPermTestMeanParallel(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchPermTest(b, 1000, 200, threads, MeanDiff)
		})
	}
}
