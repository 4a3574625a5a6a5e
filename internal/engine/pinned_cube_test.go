package engine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"comparenb/internal/table"
)

// pinnedFixture is one relation of the pinned-cube corpus together with
// the attribute sets its cubes are pinned for.
type pinnedFixture struct {
	name  string
	rel   *table.Relation
	attrs [][]int
}

// overflowAttrs groups overflowRelation by all eleven attributes, whose
// composite code space overflows uint64.
var overflowAttrs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// pinnedFixtures is the corpus of testdata/pinned_cubes.txt. Its digests
// were produced by the raw float64 kernel this package kept beside the
// block kernel until the block kernel became the only one; the test below
// holds the block kernel to them. Row counts straddle every boundary the
// build has had: one row, 2,047 and 2,048 (either side of the row gate of
// the compressed column view the block kernel once read), one full shard,
// one shard plus a row, and three shards plus a partial one.
func pinnedFixtures() []pinnedFixture {
	var fx []pinnedFixture
	for _, rows := range []int{1, 300, 2047, 2048, buildShardRows, buildShardRows + 1, 3*buildShardRows + 123} {
		fx = append(fx, pinnedFixture{
			name:  fmt.Sprintf("mixed-%d", rows),
			rel:   mixedRelation(rows, int64(rows)),
			attrs: [][]int{{}, {0}, {2}, {0, 1}, {0, 1, 2}},
		})
	}
	for _, rows := range []int{1, 2047, 2*buildShardRows + 5} {
		fx = append(fx, pinnedFixture{
			name:  fmt.Sprintf("edge-%d", rows),
			rel:   edgeRelation(rows, int64(rows)),
			attrs: [][]int{{0}, {1}, {0, 1}},
		})
	}
	fx = append(fx, pinnedFixture{
		name:  "overflow",
		rel:   overflowRelation(2*buildShardRows+77, 5),
		attrs: [][]int{overflowAttrs, {0, 10}},
	})
	return fx
}

// edgeRelation covers the measure regimes mixedRelation leaves out: exact
// integers near 2^52 whose sums are not exact, ±Inf (whose sums can turn
// NaN), NaN with a payload, a group whose measure is NaN on every row, and
// a measure that is NaN everywhere.
func edgeRelation(rows int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("edge", []string{"k", "z"}, []string{"big", "inf", "holes", "nan"})
	nanPayload := math.Float64frombits(0x7ff8_0000_0000_0abc)
	meas := make([]float64, 4)
	for i := 0; i < rows; i++ {
		k := rng.Intn(5)
		meas[0] = float64(int64(1)<<52 + int64(rng.Intn(1000)))
		meas[1] = rng.NormFloat64()
		if rng.Intn(50) == 0 {
			meas[1] = math.Inf(1 - 2*rng.Intn(2))
		}
		meas[2] = rng.Float64()
		if k == 0 {
			meas[2] = math.NaN()
		} else if rng.Intn(9) == 0 {
			meas[2] = nanPayload
		}
		meas[3] = nanPayload
		b.AddRow([]string{fmt.Sprintf("k%d", k), fmt.Sprintf("z%d", rng.Intn(3))}, meas)
	}
	return b.Build()
}

// overflowRelation has eleven attributes of 97 values each, so their
// composite code space (97^11) overflows uint64 and the group index keys
// on raw code bytes. About 300 distinct keys recur in every shard.
func overflowRelation(rows int, seed int64) *table.Relation {
	const dom = 97
	names := make([]string, len(overflowAttrs))
	for a := range names {
		names[a] = fmt.Sprintf("w%d", a)
	}
	vals := make([]string, dom)
	for v := range vals {
		vals[v] = fmt.Sprintf("v%d", v)
	}
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("overflow", names, []string{"x", "n"})
	cats := make([]string, len(names))
	for r := 0; r < rows; r++ {
		g := rng.Intn(300)
		for a := range cats {
			cats[a] = vals[(g*(a+3)+a)%dom]
		}
		b.AddRow(cats, []float64{rng.NormFloat64(), float64(rng.Intn(100))})
	}
	return b.Build()
}

// cubeDigest is the SHA-256 of everything a cube answers: group count,
// source rows and, per group in order, its key, its count and the bits of
// every measure's sum, min and max.
func cubeDigest(c *Cube) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	put(uint64(c.NumGroups()))
	put(uint64(c.SourceRows))
	for g := 0; g < c.NumGroups(); g++ {
		for _, code := range c.GroupKey(g) {
			put(uint64(uint32(code)))
		}
		put(uint64(c.Count(g)))
		for m := 0; m < c.Relation().NumMeasures(); m++ {
			for _, agg := range []Agg{Sum, Min, Max} {
				put(math.Float64bits(c.Value(g, m, agg)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedKey names one pinned cube: fixture and attribute set ("-" when
// empty).
func pinnedKey(fixture string, attrs []int) string {
	s := attrsKey(attrs)
	if s == "" {
		s = "-"
	}
	return fixture + " " + s
}

// readPinnedCubes parses testdata/pinned_cubes.txt: "fixture attrs digest"
// lines, '#' comments.
func readPinnedCubes(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/pinned_cubes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed pinned line %q", line)
		}
		pinned[fields[0]+" "+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// TestBuildCubeMatchesPinned holds the block kernel to the pinned digests
// of the raw float64 kernel it replaced: at threads {1,2,3,8}, every
// fixture cube must hash to its pinned digest.
func TestBuildCubeMatchesPinned(t *testing.T) {
	pinned := readPinnedCubes(t)
	checked := 0
	for _, fx := range pinnedFixtures() {
		for _, attrs := range fx.attrs {
			key := pinnedKey(fx.name, attrs)
			want, ok := pinned[key]
			if !ok {
				t.Fatalf("%s: no pinned digest", key)
			}
			checked++
			for _, threads := range []int{1, 2, 3, 8} {
				if got := cubeDigest(mustBuildCube(t, fx.rel, attrs, threads)); got != want {
					t.Errorf("%s threads=%d: digest %s, pinned %s", key, threads, got, want)
				}
			}
		}
	}
	if checked != len(pinned) {
		t.Errorf("checked %d cubes, %d pinned", checked, len(pinned))
	}
}
