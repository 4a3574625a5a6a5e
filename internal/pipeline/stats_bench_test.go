package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"comparenb/internal/cover"
	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/table"
)

// statsBenchRelation is a 5,000-row relation of the shape the stats phase
// meets in a shared exploration: attributes of 24, 8, 6, 5, 4 and 3
// values.
func statsBenchRelation() *table.Relation {
	return skewedRelation("stats-bench", []int{24, 8, 6, 5, 4, 3}, 5000, 21)
}

// freshBenchRelation is a 40,000-row relation of the shape a fresh upload
// brings: attributes of 8, 6, 5, 4, 4, 3, 3 and 2 values.
func freshBenchRelation() *table.Relation {
	return skewedRelation("fresh-bench", []int{8, 6, 5, 4, 4, 3, 3, 2}, 40000, 21)
}

// skewedRelation draws a relation over attributes of the given domain
// sizes with skewed frequencies (value v drawn with weight 1/√(v+1)), and
// two measures whose means shift with some of the values.
func skewedRelation(name string, domains []int, rows int, seed int64) *table.Relation {
	cats := make([]string, len(domains))
	for a := range cats {
		cats[a] = fmt.Sprintf("cat%d", a)
	}
	cum := make([][]float64, len(domains))
	for a, d := range domains {
		total := 0.0
		for v := 0; v < d; v++ {
			total += 1 / math.Sqrt(float64(v+1))
			cum[a] = append(cum[a], total)
		}
	}
	b := table.NewBuilder(name, cats, []string{"meas0", "meas1"})
	rng := rand.New(rand.NewSource(seed))
	row := make([]string, len(domains))
	for r := 0; r < rows; r++ {
		shift := 0.0
		for a, d := range domains {
			v := sort.SearchFloat64s(cum[a], rng.Float64()*cum[a][d-1])
			row[a] = fmt.Sprintf("a%d_v%02d", a, v)
			shift += float64((a*31+v*17)%7-3) * 3
		}
		b.AddRow(row, []float64{100 + shift + 20*rng.NormFloat64(), 50 - shift + 10*rng.NormFloat64()})
	}
	return b.Build()
}

// BenchmarkStatTests times the stats phase alone on statsBenchRelation at
// the permutation count and width of a shared-exploration job: 30
// permutations, one thread.
func BenchmarkStatTests(b *testing.B) {
	rel := statsBenchRelation()
	cfg := NewConfig()
	cfg.Perms = 30
	cfg.Seed = 21
	cfg.Threads = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runStatTests(context.Background(), rel, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypoPhase times the hypothesis phase alone on
// statsBenchRelation: the significant insights of a 30-permutation stats
// run after transitivity pruning, a warm cube cache, one thread.
func BenchmarkHypoPhase(b *testing.B) {
	rel := statsBenchRelation()
	cfg := NewConfig()
	cfg.Perms = 30
	cfg.Seed = 21
	cfg.Threads = 1
	ctx := context.Background()
	sig, _, err := runStatTests(ctx, rel, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	sig = insight.PruneTransitive(sig)
	fds := engine.NewFDSet(engine.DetectFDsApprox(rel, cfg.FDMaxError))
	cache := engine.NewCubeCache(0)
	if _, _, _, err := evalHypotheses(ctx, rel, cfg, fds, sig, cache, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := evalHypotheses(ctx, rel, cfg, fds, sig, cache, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sig)), "insights")
}

// BenchmarkWeighCandidates times Algorithm 2's size estimates on
// freshBenchRelation: the 154 candidates of 8 attributes capped at 4, each
// from a 4,096-row sample.
func BenchmarkWeighCandidates(b *testing.B) {
	rel := freshBenchRelation()
	cands := cover.EnumerateCandidates(rel.NumCatAttrs(), NewConfig().MaxCoverSize)
	if len(cands) != 154 {
		b.Fatalf("%d candidates, want 154", len(cands))
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := weighCandidates(ctx, rel, 21, cands); err != nil {
			b.Fatal(err)
		}
	}
}
