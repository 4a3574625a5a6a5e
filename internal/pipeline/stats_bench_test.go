package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"comparenb/internal/table"
)

// statsBenchRelation is a 5,000-row relation of the shape the stats phase
// meets in a shared exploration: attributes of 24, 8, 6, 5, 4 and 3
// values with skewed frequencies (value v drawn with weight 1/√(v+1)),
// and two measures whose means shift with some of the values.
func statsBenchRelation() *table.Relation {
	domains := []int{24, 8, 6, 5, 4, 3}
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
	b := table.NewBuilder("stats-bench", cats, []string{"meas0", "meas1"})
	rng := rand.New(rand.NewSource(21))
	row := make([]string, len(domains))
	for r := 0; r < 5000; r++ {
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
