package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/faultinject"
	"comparenb/internal/obs"
	"comparenb/internal/table"
)

// mixedRelation builds a relation whose measures land in every encoded
// kernel regime at once: a raw float column, an exactly-summable small-int
// column, a constant, an arithmetic sequence, a column with NaN holes, and
// one with -0.0 (which must force the raw fallback bit-for-bit).
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

// TestEncodedCubeBitIdenticalToRaw is the differential gate of the two
// views: on a multi-shard relation spanning every measure regime, the
// kernel over the compressed view and over the raw-alias view must both
// equal the shard-aware reference bit for bit, at every thread count, for
// single- and multi-attribute group-bys.
func TestEncodedCubeBitIdenticalToRaw(t *testing.T) {
	rows := 2*buildShardRows + 777 // 3 shards, last partial
	rel := mixedRelation(rows, 17)
	enc := rel.Encoded()
	if enc == nil {
		t.Fatal("fixture relation failed to encode")
	}
	for _, attrs := range [][]int{{0}, {2}, {0, 1}, {0, 1, 2}} {
		want := referenceBuildCube(rel, attrs)
		for _, threads := range []int{1, 2, 8} {
			label := fmt.Sprintf("attrs %v threads %d", attrs, threads)
			requireMatchesReference(t, label+" encoded", want, mustBuildView(t, rel, enc, attrs, threads))
			requireMatchesReference(t, label+" raw-alias", want, mustBuildView(t, rel, rel.RawView(), attrs, threads))
		}
	}
}

// TestEncodedCubeSingleShard covers the single-shard materialisation path
// (rows between minEncodeRows and buildShardRows).
func TestEncodedCubeSingleShard(t *testing.T) {
	rel := mixedRelation(minEncodeRows+137, 3)
	want := referenceBuildCube(rel, []int{0, 1})
	requireMatchesReference(t, "encoded", want, mustBuildCube(t, rel, []int{0, 1}, 4))
	requireMatchesReference(t, "raw-alias", want, mustBuildView(t, rel, rel.RawView(), []int{0, 1}, 4))
}

// TestEncodedKernelGate pins which view the kernel reads: the obs counters
// name the view, small relations, noEncode and composite codes that
// overflow uint64 read the raw-alias view, and large encodable relations
// read the compressed view.
func TestEncodedKernelGate(t *testing.T) {
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	count := func(name string) int64 {
		return reg.Counter(name).Value()
	}
	build := func(rel *table.Relation, attrs []int, noEncode bool) {
		t.Helper()
		if _, _, err := buildCube(ctx, rel, attrs, 1, noEncode); err != nil {
			t.Fatal(err)
		}
	}

	small := randomRelation(2, []int{4, 4}, 1, minEncodeRows-1, 1)
	build(small, []int{0}, false)
	if got := count("engine_cube_build_raw"); got != 1 {
		t.Fatalf("small relation: raw-alias builds = %d, want 1", got)
	}
	if small.EncodedCached() != nil {
		t.Fatal("small relation: the raw-alias build encoded the relation")
	}

	big := randomRelation(2, []int{4, 4}, 1, minEncodeRows, 1)
	build(big, []int{0}, false)
	if got := count("engine_cube_build_encoded"); got != 1 {
		t.Fatalf("large relation: encoded builds = %d, want 1", got)
	}

	build(big, []int{0}, true)
	if got := count("engine_cube_build_raw"); got != 2 {
		t.Fatalf("noEncode: raw-alias builds = %d, want 2", got)
	}

	wide := overflowRelation(minEncodeRows, 1)
	build(wide, overflowAttrs, false)
	if got := count("engine_cube_build_raw"); got != 3 {
		t.Fatalf("overflowing key space: raw-alias builds = %d, want 3", got)
	}
	if wide.EncodedCached() != nil {
		t.Fatal("overflowing key space: the raw-alias build encoded the relation")
	}
}

// TestEncodeAbortFallsBackToRawKernel: a fault-injected encode abort must
// leave builds on the raw-alias view with identical results — degradation,
// not failure.
func TestEncodeAbortFallsBackToRawKernel(t *testing.T) {
	rel := mixedRelation(minEncodeRows+50, 29)
	restore := faultinject.Set(faultinject.TableEncodeColumn,
		//nolint:nopanic // injected fault: EncodeAbort is the codec's sanctioned abort signal
		faultinject.Always(func() { panic(table.EncodeAbort{Reason: "test"}) }))
	defer restore()

	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	got, enc, err := buildCube(ctx, rel, []int{0, 1}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("engine_cube_build_raw").Value(); n != 1 || enc != nil {
		t.Fatalf("raw-alias builds = %d, compressed view %v; want 1 and nil (encode aborted)", n, enc)
	}
	requireMatchesReference(t, "aborted encode", referenceBuildCube(rel, []int{0, 1}), got)
}

// TestCacheChargesEncodedBytes: after a build that read the compressed
// view, the cache stats expose the retained payload, and it is charged once
// per relation no matter how many cubes build from it.
func TestCacheChargesEncodedBytes(t *testing.T) {
	rel := mixedRelation(minEncodeRows+10, 41)
	cc := NewCubeCache(0)
	mustGetOrBuild(t, cc, rel, []int{0})
	mustGetOrBuild(t, cc, rel, []int{1})
	enc := rel.EncodedCached()
	if enc == nil {
		t.Fatal("builds above minEncodeRows left no cached encoding")
	}
	if got, want := cc.Stats().EncodedBytes, int64(enc.RetainedBytes()); got != want {
		t.Fatalf("EncodedBytes = %d, want %d (charged once)", got, want)
	}

	off := NewCubeCache(0)
	off.SetNoEncode(true)
	rel2 := mixedRelation(minEncodeRows+10, 43)
	mustGetOrBuild(t, off, rel2, []int{0})
	if got := off.Stats().EncodedBytes; got != 0 {
		t.Fatalf("EncodedBytes = %d with SetNoEncode(true), want 0", got)
	}
	if rel2.EncodedCached() != nil {
		t.Error("SetNoEncode cache still triggered a lazy encode")
	}
}

// TestCacheChargesOnlyViewsItRead: a cache charges a compressed view only
// when one of its own builds read it. A -no-compress cache building over a
// relation that another cache already encoded must not inherit that
// encoding's bytes, and dropping the relation refunds exactly what was
// charged.
func TestCacheChargesOnlyViewsItRead(t *testing.T) {
	rel := mixedRelation(minEncodeRows+10, 41)
	enc := NewCubeCache(0)
	mustGetOrBuild(t, enc, rel, []int{0})
	if rel.EncodedCached() == nil {
		t.Fatal("the encoding cache left no cached encoding")
	}

	off := NewCubeCache(0)
	off.SetNoEncode(true)
	mustGetOrBuild(t, off, rel, []int{1})
	if got := off.Stats().EncodedBytes; got != 0 {
		t.Fatalf("SetNoEncode(true) cache: EncodedBytes = %d after another cache encoded the relation, want 0", got)
	}
	off.DropRelation(rel)
	if got := off.Stats().EncodedBytes; got != 0 {
		t.Fatalf("SetNoEncode(true) cache: EncodedBytes = %d after DropRelation, want 0", got)
	}
	enc.DropRelation(rel)
	if got := enc.Stats().EncodedBytes; got != 0 {
		t.Fatalf("encoding cache: EncodedBytes = %d after DropRelation, want 0", got)
	}
}
