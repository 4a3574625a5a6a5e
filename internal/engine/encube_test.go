package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/table"
)

// mixedRelation builds a relation with a measure in every regime the
// block kernel's compressed column view once treated specially: a float
// column, an exactly-summable small-int column, a constant, an arithmetic
// sequence, a column with NaN holes, and one with -0.0.
func mixedRelation(rows int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("mixed",
		[]string{"region", "product", "channel"},
		[]string{"score", "units", "flat", "day", "gappy", "negz"})
	cats := make([]string, 3)
	meas := make([]float64, 6)
	negZero := math.Copysign(0, -1)
	for i := 0; i < rows; i++ {
		cats[0] = string(rune('a' + rng.Intn(9)))
		cats[1] = string(rune('A' + rng.Intn(23)))
		cats[2] = string(rune('0' + rng.Intn(4)))
		meas[0] = rng.NormFloat64() * 1e3
		meas[1] = float64(rng.Intn(500))
		meas[2] = 42.5
		meas[3] = float64(100 + 2*i)
		meas[4] = float64(rng.Intn(50))
		if rng.Intn(7) == 0 {
			meas[4] = math.NaN()
		}
		meas[5] = float64(rng.Intn(3))
		if rng.Intn(11) == 0 {
			meas[5] = negZero
		}
		b.AddRow(cats, meas)
	}
	return b.Build()
}

// TestEncodedCubeBitIdenticalToRaw is the differential gate of the block
// kernel (encube.go): on a multi-shard relation spanning every measure
// regime, the kernel must equal the shard-aware reference, which
// accumulates raw float64 values row by row, bit for bit at every thread
// count, for single- and multi-attribute group-bys.
func TestEncodedCubeBitIdenticalToRaw(t *testing.T) {
	rows := 2*buildShardRows + 777 // 3 shards, last partial
	rel := mixedRelation(rows, 17)
	for _, attrs := range [][]int{{0}, {2}, {0, 1}, {0, 1, 2}} {
		want := referenceBuildCube(rel, attrs)
		for _, threads := range []int{1, 2, 8} {
			label := fmt.Sprintf("attrs %v threads %d", attrs, threads)
			requireMatchesReference(t, label, want, mustBuildCube(t, rel, attrs, threads))
		}
	}
}

// TestEncodedCubeSingleShard covers the block kernel's single-shard
// materialisation path (2,185 rows, under one buildShardRows shard).
func TestEncodedCubeSingleShard(t *testing.T) {
	rel := mixedRelation(2185, 3)
	want := referenceBuildCube(rel, []int{0, 1})
	requireMatchesReference(t, "single shard", want, mustBuildCube(t, rel, []int{0, 1}, 4))
}
