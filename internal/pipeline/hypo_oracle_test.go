package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"comparenb/internal/cover"
	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/table"
)

// evalOne is the evaluator evalHypothesis replaced: θ from one walk of
// the pair cube, then one map-based join (compareFromCubeMaps) and one
// sort per aggregate.
func evalOne(rel *table.Relation, pc *engine.Cube, attrA int, ins insight.Insight) hypoOutcome {
	var out hypoOutcome
	posB := 0
	if pc.Attrs()[1] == ins.Attr {
		posB = 1
	}
	for g := 0; g < pc.NumGroups(); g++ {
		if b := pc.GroupKey(g)[posB]; b == ins.Val || b == ins.Val2 {
			out.theta += int(pc.Count(g))
		}
	}
	for _, agg := range engine.AllAggs {
		res := compareFromCubeMaps(rel, pc, attrA, ins.Attr, ins.Val, ins.Val2, ins.Meas, agg)
		out.gamma = res.Len()
		if insight.Supports(res, ins.Type) {
			out.supportedAggs = append(out.supportedAggs, agg)
			if agg == engine.Avg {
				out.avgSupports = true
			}
		}
	}
	return out
}

// compareFromCubeMaps is the map-based cube join CompareFromCube used to
// be: each selection's values keyed by A's code, joined, and sorted by A's
// value strings. pc must be the pair cube of {A, B}.
func compareFromCubeMaps(rel *table.Relation, pc *engine.Cube, attrA, attrB int, val, val2 int32, meas int, agg engine.Agg) *engine.ComparisonResult {
	posA, posB := 0, 1
	if pc.Attrs()[0] == attrB {
		posA, posB = 1, 0
	}
	left := map[int32]float64{}
	right := map[int32]float64{}
	for g := 0; g < pc.NumGroups(); g++ {
		key := pc.GroupKey(g)
		b := key[posB]
		if b == val {
			left[key[posA]] = pc.Value(g, meas, agg)
		}
		if b == val2 {
			right[key[posA]] = pc.Value(g, meas, agg)
		}
	}
	res := &engine.ComparisonResult{}
	for a, lv := range left {
		if rv, ok := right[a]; ok {
			res.Groups = append(res.Groups, a)
			res.Left = append(res.Left, lv)
			res.Right = append(res.Right, rv)
		}
	}
	order := make([]int, res.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		return rel.Value(attrA, res.Groups[order[x]]) < rel.Value(attrA, res.Groups[order[y]])
	})
	sorted := &engine.ComparisonResult{}
	for _, i := range order {
		sorted.Groups = append(sorted.Groups, res.Groups[i])
		sorted.Left = append(sorted.Left, res.Left[i])
		sorted.Right = append(sorted.Right, res.Right[i])
	}
	return sorted
}

// hypoOracleRelation draws four attributes of shuffled labels (dictionary
// order is not value order), the second single-valued, and two measures
// mixing NaN, -0.0, small integers that tie across groups and inexact
// floats; the second measure is mostly NaN, so some groups have none.
func hypoOracleRelation(seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	doms := []int{2 + rng.Intn(6), 1, 2 + rng.Intn(5), 2 + rng.Intn(4)}
	cats := make([]string, len(doms))
	labels := make([][]string, len(doms))
	for a, d := range doms {
		cats[a] = fmt.Sprintf("c%d", a)
		for _, v := range rng.Perm(d) {
			labels[a] = append(labels[a], fmt.Sprintf("v%02d", v))
		}
	}
	value := func(nanShare float64) float64 {
		switch p := rng.Float64(); {
		case p < nanShare:
			return math.NaN()
		case p < nanShare+0.1:
			return math.Copysign(0, -1)
		case p < nanShare+0.6:
			return float64(rng.Intn(3))
		default:
			return rng.NormFloat64() * 10
		}
	}
	b := table.NewBuilder("hypo-oracle", cats, []string{"m0", "m1"})
	row := make([]string, len(doms))
	for r, rows := 0, 30+rng.Intn(150); r < rows; r++ {
		for a := range doms {
			row[a] = labels[a][rng.Intn(len(labels[a]))]
		}
		b.AddRow(row, []float64{value(0.1), value(0.8)})
	}
	return b.Build()
}

// TestEvalHypothesisMatchesEvalOne is the differential test of the fused
// evaluator: for every insight type on every measure, every ordered
// attribute pair and every (val, val') over dom(B) plus a code no group
// has (an absent side, and val == val'), evalHypothesis must return
// evalOne's supported aggregates, credibility bit, θ and γ. The pair
// cubes are built directly and rolled up from 3- and 4-attribute cubes,
// whose group orders differ; half-relations sharing the dictionaries
// leave values absent.
func TestEvalHypothesisMatchesEvalOne(t *testing.T) {
	ctx := context.Background()
	cube := func(rel *table.Relation, attrs []int) *engine.Cube {
		c, err := engine.BuildCube(ctx, rel, attrs, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	supported := 0
	for seed := int64(1); seed <= 8; seed++ {
		full := hypoOracleRelation(seed)
		half := make([]int, full.NumRows()/2)
		for i := range half {
			half[i] = 2*i + 1
		}
		for ri, rel := range []*table.Relation{full, full.Select(half)} {
			all := cube(rel, []int{0, 1, 2, 3})
			for attrA := 0; attrA < 4; attrA++ {
				rank := rel.SortedDomain(attrA)
				for attrB := 0; attrB < 4; attrB++ {
					if attrA == attrB {
						continue
					}
					third := (max(attrA, attrB) + 1) % 4
					for third == attrA || third == attrB {
						third = (third + 1) % 4
					}
					pair := []int{attrA, attrB}
					pcs := []*engine.Cube{cube(rel, pair), cube(rel, []int{attrA, attrB, third}).Rollup(pair), all.Rollup(pair)}
					vals := append(rel.SortedDomain(attrB), int32(rel.DomSize(attrB)))
					for pi, pc := range pcs {
						for _, val := range vals {
							for _, val2 := range vals {
								for _, typ := range insight.ExtendedTypes {
									for m := 0; m < rel.NumMeasures(); m++ {
										ins := insight.Insight{Meas: m, Attr: attrB, Val: val, Val2: val2, Type: typ}
										want := evalOne(rel, pc, attrA, ins)
										got := evalHypothesis(pc, attrA, rank, ins)
										if !reflect.DeepEqual(got, want) {
											t.Fatalf("seed %d rel %d A=%d B=%d cube %d (%d, %d) %s m%d: fused %+v, oracle %+v",
												seed, ri, attrA, attrB, pi, val, val2, typ, m, got, want)
										}
										supported += len(want.supportedAggs)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if supported == 0 {
		t.Fatal("no aggregate supported any insight: the test compares nothing but rejections")
	}
}

// TestBuildPairCubesCancelledWide plans Algorithm 2's cover for a
// 24-attribute relation under a cancelled context: enumerating the capped
// candidates must not walk 2^24 bitmasks, and the size estimates must
// stop before the first candidate.
func TestBuildPairCubesCancelledWide(t *testing.T) {
	cats := make([]string, 24)
	for a := range cats {
		cats[a] = fmt.Sprintf("a%d", a)
	}
	b := table.NewBuilder("wide", cats, []string{"m"})
	rng := rand.New(rand.NewSource(3))
	row := make([]string, len(cats))
	for r := 0; r < 200; r++ {
		for a := range row {
			row[a] = fmt.Sprint(rng.Intn(4))
		}
		b.AddRow(row, []float64{rng.Float64()})
	}
	rel := b.Build()
	var needed []cover.Pair
	for a := 0; a < len(cats); a++ {
		for b := a + 1; b < len(cats); b++ {
			needed = append(needed, cover.Pair{A: a, B: b})
		}
	}
	cfg := NewConfig()
	cfg.UseWSC = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	cache := engine.NewCubeCache(0)
	_, err := buildPairCubes(ctx, rel, cfg, needed, cache)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled plan took %v", d)
	}
	if s := cache.Stats(); s.Misses != 0 {
		t.Errorf("cancelled plan built %d cubes", s.Misses)
	}

	cands := cover.EnumerateCandidates(rel.NumCatAttrs(), maxCoverSize)
	if err := weighCandidates(ctx, rel, cfg.Seed, cands); !errors.Is(err, context.Canceled) {
		t.Fatalf("weighCandidates err = %v, want context.Canceled", err)
	}
	for _, c := range cands {
		if c.Weight != 0 {
			t.Fatalf("candidate %v weighed under a cancelled context", c.Attrs)
		}
	}
}
