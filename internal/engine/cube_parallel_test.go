package engine

import (
	"fmt"
	"math"
	"testing"

	"comparenb/internal/table"
)

// refGroup / referenceBuildCube is an independent, deliberately naive cube
// builder used as ground truth for the kernel: a map keyed by the codes'
// bytes, value-by-value accumulation. Group order is first occurrence in
// row order, taken straight from the rows. Sums follow the one summation
// order the kernel promises — each fixed buildShardRows shard summed from
// +0.0, the shard partials folded in shard order — so it compares bit for
// bit.
type refGroup struct {
	key   []int32
	count int64
	stats []float64 // measure j: sum, min, max at stats[3j:3j+3]
}

func referenceBuildCube(rel *table.Relation, attrs []int) []refGroup {
	nmeas, n := rel.NumMeasures(), rel.NumRows()
	buf := make([]byte, 4*len(attrs))
	keyBytes := func(row int) string {
		for k, a := range attrs {
			c := rel.CatCol(a)[row]
			buf[4*k], buf[4*k+1], buf[4*k+2], buf[4*k+3] = byte(c), byte(c>>8), byte(c>>16), byte(c>>24)
		}
		return string(buf)
	}
	empty := func(st []float64) {
		for j := 0; j < nmeas; j++ {
			st[3*j], st[3*j+1], st[3*j+2] = 0, math.NaN(), math.NaN()
		}
	}

	// Pass 1: group ids in first-occurrence order.
	ids := map[string]int{}
	var keys []int32
	for row := 0; row < n; row++ {
		if _, ok := ids[keyBytes(row)]; !ok {
			ids[keyBytes(row)] = len(ids)
			for _, a := range attrs {
				keys = append(keys, rel.CatCol(a)[row])
			}
		}
	}
	groups := make([]refGroup, len(ids))
	stats := make([]float64, 3*nmeas*len(ids))
	for g := range groups {
		groups[g] = refGroup{key: keys[g*len(attrs) : (g+1)*len(attrs)], stats: stats[3*nmeas*g : 3*nmeas*(g+1)]}
		empty(groups[g].stats)
	}

	// Pass 2: per-shard partials, folded in shard order. A zero partial
	// count marks a group the current shard has not reached yet.
	pcount := make([]int64, len(ids))
	pstats := make([]float64, 3*nmeas*len(ids))
	touched := make([]int, 0, len(ids))
	for lo := 0; lo < n; lo += buildShardRows {
		touched = touched[:0]
		for row := lo; row < min(lo+buildShardRows, n); row++ {
			g := ids[keyBytes(row)]
			st := pstats[3*nmeas*g : 3*nmeas*(g+1)]
			if pcount[g] == 0 {
				touched = append(touched, g)
				empty(st)
			}
			pcount[g]++
			for j := 0; j < nmeas; j++ {
				v := rel.MeasCol(j)[row]
				if math.IsNaN(v) {
					continue
				}
				st[3*j] += v
				if math.IsNaN(st[3*j+1]) || v < st[3*j+1] {
					st[3*j+1] = v
				}
				if math.IsNaN(st[3*j+2]) || v > st[3*j+2] {
					st[3*j+2] = v
				}
			}
		}
		for _, g := range touched {
			p, gl := pstats[3*nmeas*g:3*nmeas*(g+1)], &groups[g]
			gl.count += pcount[g]
			pcount[g] = 0
			for j := 0; j < nmeas; j++ {
				gl.stats[3*j] += p[3*j]
				if v := p[3*j+1]; !math.IsNaN(v) && (math.IsNaN(gl.stats[3*j+1]) || v < gl.stats[3*j+1]) {
					gl.stats[3*j+1] = v
				}
				if v := p[3*j+2]; !math.IsNaN(v) && (math.IsNaN(gl.stats[3*j+2]) || v > gl.stats[3*j+2]) {
					gl.stats[3*j+2] = v
				}
			}
		}
	}
	return groups
}

// requireMatchesReference fails unless the cube equals the reference bit
// for bit: group order, keys, counts, and every sum, min and max compared
// through Float64bits.
func requireMatchesReference(t *testing.T, label string, want []refGroup, got *Cube) {
	t.Helper()
	if got.NumGroups() != len(want) {
		t.Fatalf("%s: groups %d, reference %d", label, got.NumGroups(), len(want))
	}
	for g, ref := range want {
		key := got.GroupKey(g)
		for k := range key {
			if key[k] != ref.key[k] {
				t.Fatalf("%s: group %d key %v, reference %v (first-occurrence order broken)", label, g, key, ref.key)
			}
		}
		if got.Count(g) != ref.count {
			t.Fatalf("%s: group %d count %d, reference %d", label, g, got.Count(g), ref.count)
		}
		for i, v := range ref.stats {
			agg := []Agg{Sum, Min, Max}[i%3]
			if c := got.Value(g, i/3, agg); math.Float64bits(c) != math.Float64bits(v) {
				t.Fatalf("%s: group %d %s(m%d) = %v (bits %x), reference %v (bits %x)",
					label, g, agg, i/3, c, math.Float64bits(c), v, math.Float64bits(v))
			}
		}
	}
}

// requireCubesBitIdentical fails unless the two cubes are bit-for-bit the
// same: keys, counts, and every float compared through Float64bits (so NaN
// patterns and signed zeros count too).
func requireCubesBitIdentical(t *testing.T, label string, a, b *Cube) {
	t.Helper()
	if a.NumGroups() != b.NumGroups() {
		t.Fatalf("%s: groups %d vs %d", label, a.NumGroups(), b.NumGroups())
	}
	if a.SourceRows != b.SourceRows {
		t.Fatalf("%s: SourceRows %d vs %d", label, a.SourceRows, b.SourceRows)
	}
	for g := 0; g < a.NumGroups(); g++ {
		ka, kb := a.GroupKey(g), b.GroupKey(g)
		for k := range ka {
			if ka[k] != kb[k] {
				t.Fatalf("%s: group %d key %v vs %v", label, g, ka, kb)
			}
		}
		if a.Count(g) != b.Count(g) {
			t.Fatalf("%s: group %d count %d vs %d", label, g, a.Count(g), b.Count(g))
		}
		for m := 0; m < a.rel.NumMeasures(); m++ {
			for _, agg := range []Agg{Sum, Min, Max} {
				va, vb := a.Value(g, m, agg), b.Value(g, m, agg)
				if math.Float64bits(va) != math.Float64bits(vb) {
					t.Fatalf("%s: group %d %s(m%d) = %v (bits %x) vs %v (bits %x)",
						label, g, agg, m, va, math.Float64bits(va), vb, math.Float64bits(vb))
				}
			}
		}
	}
}

// TestBuildCubeParallelBitIdentical pins the tentpole contract: the sharded
// build produces byte-identical cubes at every thread count, on relations
// large enough to span several shards (so the merge path actually runs).
func TestBuildCubeParallelBitIdentical(t *testing.T) {
	rows := 3*buildShardRows + 123 // 4 shards, last one partial
	rel := randomRelation(3, []int{7, 13, 5}, 2, rows, 42)
	for _, attrs := range [][]int{{0}, {0, 1}, {0, 1, 2}} {
		serial := mustBuildCube(t, rel, attrs, 1)
		for _, threads := range []int{2, 3, 4, 8} {
			par := mustBuildCube(t, rel, attrs, threads)
			requireCubesBitIdentical(t, "attrs/threads", serial, par)
		}
	}
}

// TestBuildCubeParallelSingleShard checks the zero-goroutine fast path: a
// relation that fits one shard takes the merge-free route at any width.
func TestBuildCubeParallelSingleShard(t *testing.T) {
	rel := randomRelation(2, []int{4, 6}, 1, 500, 9)
	serial := mustBuildCube(t, rel, []int{0, 1}, 1)
	par := mustBuildCube(t, rel, []int{0, 1}, 8)
	requireCubesBitIdentical(t, "single shard", serial, par)
}

// TestBuildCubeMatchesReference is the property test against the naive
// ground-truth builder, over several seeded random relations that cross
// shard boundaries: the cube over either view must match it bit for bit.
func TestBuildCubeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rows int
		doms []int
	}{
		{seed: 1, rows: buildShardRows + 17, doms: []int{3, 5}},
		{seed: 2, rows: 2*buildShardRows + 1, doms: []int{10, 2}},
		{seed: 3, rows: 2 * buildShardRows, doms: []int{6, 4}},
	} {
		rel := randomRelation(len(tc.doms), tc.doms, 2, tc.rows, tc.seed)
		attrs := []int{0, 1}
		want := referenceBuildCube(rel, attrs)
		requireMatchesReference(t, fmt.Sprintf("seed %d", tc.seed), want, mustBuildCube(t, rel, attrs, 1))
		requireMatchesReference(t, fmt.Sprintf("seed %d raw-alias", tc.seed), want, mustBuildView(t, rel, rel.RawView(), attrs, 1))
	}
}

// TestBuildCubeParallelNaN checks the merge handles all-NaN and mixed-NaN
// groups across shard boundaries: the NaN min/max sentinel must survive a
// merge with a shard that saw no finite value.
func TestBuildCubeParallelNaN(t *testing.T) {
	b := table.NewBuilder("nan", []string{"g"}, []string{"m"})
	rows := buildShardRows + 100
	for r := 0; r < rows; r++ {
		val := math.NaN()
		// Group "y" (odd rows) gets its single finite value in the second
		// shard only.
		if r == buildShardRows+51 {
			val = 7
		}
		g := "x"
		if r%2 == 1 {
			g = "y"
		}
		b.AddRow([]string{g}, []float64{val})
	}
	rel := b.Build()
	serial := mustBuildCube(t, rel, []int{0}, 1)
	par := mustBuildCube(t, rel, []int{0}, 4)
	requireCubesBitIdentical(t, "NaN merge", serial, par)
	for g := 0; g < par.NumGroups(); g++ {
		switch rel.Value(0, par.GroupKey(g)[0]) {
		case "x":
			if v := par.Value(g, 0, Min); !math.IsNaN(v) {
				t.Errorf("Min(all-NaN group) = %v, want NaN", v)
			}
		case "y":
			if v := par.Value(g, 0, Min); v != 7 {
				t.Errorf("Min(y) = %v, want 7", v)
			}
		}
	}
}
