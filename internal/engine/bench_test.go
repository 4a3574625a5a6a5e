package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

func benchRelation(b *testing.B, rows int) *table.Relation {
	b.Helper()
	return randomRelation(4, []int{8, 12, 24, 48}, 2, rows, 1)
}

func BenchmarkBuildCube2Attrs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuildCube(b, rel, []int{0, 3}, 1)
	}
}

func BenchmarkBuildCube4Attrs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustBuildCube(b, rel, []int{0, 1, 2, 3}, 1)
	}
}

// BenchmarkBuildCubeWorkloads times the kernel on relations shaped like
// perfbench's two workloads: explore is a 5,000-row shared-explore
// relation (one shard), fresh a 40,000-row fresh-upload one (three
// shards), both with two float measures. Every sub-benchmark builds at
// threads 1, after one warm build outside the timer.
func BenchmarkBuildCubeWorkloads(b *testing.B) {
	shapes := []struct {
		name string
		rows int
		doms []int
	}{
		{"explore", 5000, []int{24, 8, 6, 5, 4, 3}},
		{"fresh", 40000, []int{8, 6, 5, 4, 4, 3, 3, 2}},
	}
	for _, sh := range shapes {
		rel := randomRelation(len(sh.doms), sh.doms, 2, sh.rows, 1)
		for _, attrs := range [][]int{{0, 1}, {0, 1, 2, 3}} {
			b.Run(fmt.Sprintf("%s/%dattrs", sh.name, len(attrs)), func(b *testing.B) {
				mustBuildCube(b, rel, attrs, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustBuildCube(b, rel, attrs, 1)
				}
			})
		}
	}
}

func BenchmarkRollup(b *testing.B) {
	rel := benchRelation(b, 50000)
	wide := mustBuildCube(b, rel, []int{0, 1, 2, 3}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wide.Rollup([]int{0, 3})
	}
}

func BenchmarkCompareFromCube(b *testing.B) {
	rel := benchRelation(b, 50000)
	cube := mustBuildCube(b, rel, []int{0, 1}, 1)
	dom := rel.SortedDomain(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareFromCube(cube, 0, 1, dom[0], dom[1], 0, Avg)
	}
}

func BenchmarkDetectFDs(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectFDs(rel)
	}
}

// BenchmarkEstimateGroups times one 4,096-row estimate of a 4-attribute
// group-by on an estimator that has already served a candidate, as every
// candidate after a plan's first is.
func BenchmarkEstimateGroups(b *testing.B) {
	rel := benchRelation(b, 50000)
	rng := rand.New(rand.NewSource(1))
	e := NewGroupEstimator(rel, 4096)
	e.Estimate([]int{0, 1, 2, 3}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Estimate([]int{0, 1, 2, 3}, rng)
	}
}

func BenchmarkComparisonPlan(b *testing.B) {
	rel := benchRelation(b, 50000)
	dom := rel.SortedDomain(1)
	plan := ComparisonPlan(rel, 0, 1, dom[0], dom[1], 0, Sum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildCubeReference is the naive map-based builder the sharded
// kernel is measured against: same fixed seed and attribute set as
// BenchmarkBuildCube2Attrs, so scripts/bench.sh can report the kernel's
// speedup over it.
func BenchmarkBuildCubeReference(b *testing.B) {
	rel := benchRelation(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceBuildCube(rel, []int{0, 3})
	}
}

// BenchmarkBuildCubeParallel exercises the sharded build at several worker
// widths (50000 rows = 4 shards). threads=1 is the zero-goroutine serial
// path; the other widths produce bit-identical cubes.
func BenchmarkBuildCubeParallel(b *testing.B) {
	rel := benchRelation(b, 50000)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustBuildCube(b, rel, []int{0, 3}, threads)
			}
		})
	}
}

func BenchmarkCubeCacheExactHit(b *testing.B) {
	rel := benchRelation(b, 50000)
	cc := NewCubeCache(0)
	mustGetOrBuild(b, cc, rel, []int{0, 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustGetOrBuild(b, cc, rel, []int{0, 3})
	}
}

// BenchmarkCubeCacheRollupHit measures answering a pair group-by by rolling
// up a cached 4-attribute superset instead of rescanning the relation.
func BenchmarkCubeCacheRollupHit(b *testing.B) {
	rel := benchRelation(b, 50000)
	super := mustBuildCube(b, rel, []int{0, 1, 2, 3}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewCubeCache(0)
		fresh.insertLocked(cacheKey{rel: rel, attrs: attrsKey(super.attrs)}, super, super.attrs)
		b.StartTimer()
		mustGetOrBuild(b, fresh, rel, []int{0, 3})
	}
}
