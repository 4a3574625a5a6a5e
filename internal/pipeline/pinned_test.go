package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"comparenb/internal/insight"
	"comparenb/internal/sampling"
	"comparenb/internal/table"
	"comparenb/internal/testutil"
)

// testdata/pinned_sig.txt holds the Sig bits of every significant insight
// the stats phase of a Full run found on pinnedRelation ("sig" lines,
// checked by TestStatsPhaseMatchesPinned), and of the sampled and
// pair-capped runs of sampledPins on sparseRelation (lines prefixed with
// the run's name, checked by TestSampledStatsPhaseMatchesPinned).
// UPDATE_GOLDEN=1 rewrites all four runs, through pinnedSigFileLines.
const pinnedSigFile = "testdata/pinned_sig.txt"

// pinnedSigHeader is the pinned file's comment: what its lines are.
const pinnedSigHeader = `Sig bits of every significant insight of the stats phase: "sig" lines for
a Full run on pinnedRelation (TestStatsPhaseMatchesPinned), then the
sampledPins runs on sparseRelation, each line prefixed with the run's name
(TestSampledStatsPhaseMatchesPinned).`

// pinnedSigFileLines runs the four pinned runs at one thread and formats
// them as the pinned file lists them.
func pinnedSigFileLines(t *testing.T) []string {
	t.Helper()
	lines := pinnedSigLines(t, 1)
	rel := sparseRelation()
	for _, run := range sampledPins {
		cfg := pinnedConfig(1)
		run.set(&cfg)
		for _, line := range sigLines(t, rel, cfg) {
			lines = append(lines, run.name+" "+line)
		}
	}
	return lines
}

// readPinnedSig returns the pinned file's lines by run: "" for the
// unprefixed lines of the Full run, else the prefix.
func readPinnedSig(t *testing.T) map[string][]string {
	t.Helper()
	runs := make(map[string][]string)
	for _, line := range testutil.ReadPinned(t, pinnedSigFile, pinnedSigHeader, func() []string { return pinnedSigFileLines(t) }) {
		run := ""
		if !strings.HasPrefix(line, "sig ") {
			run, line, _ = strings.Cut(line, " ")
		}
		runs[run] = append(runs[run], line)
	}
	return runs
}

// pinnedRelation has two measures and NaN cells, so the permutation
// sharing of testPair is exercised in all three shapes:
//   - grp=a has NaN m1 cells, so every pair with a splits into two streams
//     (m0 and m1 have different side sizes);
//   - (b, c) and (b, d) share one stream across both measures;
//   - c and d have identical m0 values, so (c, d) tests nothing on m0
//     yet its m1 tests still draw from the stream seeded by measure 0.
func pinnedRelation() *table.Relation {
	return pinnedBuilder().Build()
}

// sparseRelation is pinnedRelation plus two rows of a fifth group, e: a
// sample at a small fraction misses both, yet its relation keeps e in the
// dictionary.
func sparseRelation() *table.Relation {
	b := pinnedBuilder()
	b.AddRow([]string{"e", "x"}, []float64{20, 9})
	b.AddRow([]string{"e", "y"}, []float64{21, 8})
	return b.Build()
}

func pinnedBuilder() *table.Builder {
	b := table.NewBuilder("pinned", []string{"grp", "cat"}, []string{"m0", "m1"})
	groups := []string{"a", "b", "c", "d"}
	cats := []string{"x", "y", "z"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 480; i++ {
		g, c := i%4, (i/4)%3
		n0, n1 := rng.NormFloat64(), rng.NormFloat64()
		var m0, m1 float64
		switch g {
		case 0:
			m0 = 10.35 + n0 + 0.2*float64(c)
			m1 = 5 + 0.8*n1
			if (i/4)%7 == 0 {
				m1 = math.NaN()
			}
		case 1:
			m0 = 10 + 1.3*n0 + 0.2*float64(c)
			m1 = 5 + n1
		case 2:
			m0 = float64((i / 4) % 5)
			m1 = 5.4 + n1
		default:
			m0 = float64((i / 4) % 5)
			m1 = 5 + 1.3*n1
		}
		b.AddRow([]string{groups[g], cats[c]}, []float64{m0, m1})
	}
	return b
}

// pinnedConfig is the stats-phase configuration of every pinned run.
func pinnedConfig(threads int) Config {
	cfg := NewConfig()
	cfg.Perms = 263
	cfg.Seed = 11
	cfg.Threads = threads
	cfg.InsightTypes = insight.ExtendedTypes
	// A loose level and per-pair BH families keep moderate p-values in
	// the output, so the pin sees which stream every test drew from.
	cfg.Alpha = 0.5
	cfg.BHScope = BHPerPair
	return cfg
}

// pinnedSigLines runs the stats phase of a Full run on pinnedRelation and
// formats every significant insight with its Sig bits.
func pinnedSigLines(t *testing.T, threads int) []string {
	t.Helper()
	return sigLines(t, pinnedRelation(), pinnedConfig(threads))
}

// sigLines runs the stats phase on rel and formats every significant
// insight with its Sig bits.
func sigLines(t *testing.T, rel *table.Relation, cfg Config) []string {
	t.Helper()
	sig, _, err := runStatTests(context.Background(), rel, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(sig))
	for i, in := range sig {
		lines[i] = fmt.Sprintf("sig %s %s %s>%s %v %016x", rel.MeasName(in.Meas), rel.CatName(in.Attr),
			rel.Value(in.Attr, in.Val), rel.Value(in.Attr, in.Val2), in.Type, math.Float64bits(in.Sig))
	}
	return lines
}

// TestStatsPhaseMatchesPinned checks the stats phase's significance
// values against the pinned file, bit for bit, at several thread counts.
func TestStatsPhaseMatchesPinned(t *testing.T) {
	want := readPinnedSig(t)[""]
	for _, threads := range []int{1, 2, 3, 8} {
		got := pinnedSigLines(t, threads)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("threads=%d: significant insights differ from the pinned file\ngot:\n%s\nwant:\n%s",
				threads, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// sampledPins are the pinned stats-phase runs on sparseRelation beside
// the Full run: a random sample small enough to miss group e, per
// attribute unbalanced samples, and a cap on the pairs per attribute.
var sampledPins = []struct {
	name string
	set  func(*Config)
}{
	{"random", func(c *Config) { c.Sampling, c.SampleFrac = sampling.Random, 0.25 }},
	{"unbalanced", func(c *Config) { c.Sampling, c.SampleFrac = sampling.Unbalanced, 0.25 }},
	{"maxpairs", func(c *Config) { c.MaxPairsPerAttr = 3 }},
}

// TestSampledStatsPhaseMatchesPinned checks the stats phase's
// significance values on sampled and pair-capped runs against the pinned
// file, bit for bit, at several thread counts.
func TestSampledStatsPhaseMatchesPinned(t *testing.T) {
	rel := sparseRelation()
	// The random run's sample must lack a dictionary value, or the pin
	// would not cover one.
	sample := sampling.RandomSample(rel, 0.25, rand.New(rand.NewSource(jobSeed(pinnedConfig(1).Seed, -1))))
	grp := sample.CatCol(0)
	if slices.Contains(grp, 4) || sample.DomSize(0) != 5 {
		t.Fatalf("the random sample keeps group %q; it must miss it", rel.Value(0, 4))
	}
	pinned := readPinnedSig(t)
	for _, run := range sampledPins {
		want := pinned[run.name]
		if len(want) == 0 {
			t.Fatalf("%s: no pinned lines", run.name)
		}
		for _, threads := range []int{1, 2, 8} {
			cfg := pinnedConfig(threads)
			run.set(&cfg)
			got := sigLines(t, rel, cfg)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s threads=%d: significant insights differ from the pinned file\ngot:\n%s\nwant:\n%s",
					run.name, threads, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}
