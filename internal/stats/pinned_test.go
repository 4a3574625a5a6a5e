package stats

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparenb/internal/testutil"
)

// testdata/pinned_pvalues.txt holds the float64 bits of PermTests'
// results on the eager grid, one stream shared by every test of a stream
// ("eager" lines: obs and p), and on the early-stopping cases ("early"
// lines: obs, p and permutations used). The inputs are rebuilt here from
// fixed seeds; only the outputs are stored. PermTests must reproduce
// every bit at every thread count; UPDATE_GOLDEN=1 rewrites the file.
const pinnedFile = "testdata/pinned_pvalues.txt"

// pinnedHeader is the pinned file's comment: what its lines are.
const pinnedHeader = `float64 bits of PermTests on pinEagerGrid ("eager": stream, test, obs, p)
and pinEarlyCases ("early": case, alpha, obs, p, permutations); checked by
TestPermTestsMatchPinned.`

// pinStream is one shared permutation stream and the tests scored on it.
type pinStream struct {
	nx, ny, nperm int
	seed          int64
	tests         []PermTest
}

// pinValues draws a pooled vector (side X first) of one of five kinds:
// a moderate shift on side X, heavily tied small integers, a constant, a
// mix of large magnitudes and ties, and a shift too large to miss.
func pinValues(rng *rand.Rand, nx, ny, kind int) []float64 {
	v := make([]float64, nx+ny)
	for i := range v {
		switch kind {
		case 0:
			v[i] = rng.NormFloat64()
			if i < nx {
				v[i] += 0.4
			}
		case 1:
			v[i] = float64(rng.Intn(4))
		case 2:
			v[i] = 2.5
		case 3:
			v[i] = float64(rng.Intn(3))*1e6 + rng.Float64()
		default:
			v[i] = rng.NormFloat64()
			if i < nx {
				v[i] += 3
			}
		}
	}
	return v
}

// pinEagerGrid is the eager grid: every permutation count around the
// block width × side shapes down to 1×1, with 1–6 tests per stream
// cycling through the value kinds and all three statistics.
func pinEagerGrid() []pinStream {
	perms := []int{1, 19, 30, 63, 64, 65, 200, 263}
	sides := [][2]int{{1, 1}, {1, 4}, {2, 2}, {3, 5}, {9, 7}, {30, 30}, {64, 17}, {151, 300}}
	var out []pinStream
	for pi, nperm := range perms {
		for si, sd := range sides {
			i := pi*len(sides) + si
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			s := pinStream{nx: sd[0], ny: sd[1], nperm: nperm, seed: rng.Int63()}
			for t := 0; t < 1+i%6; t++ {
				s.tests = append(s.tests, PermTest{
					Pooled: pinValues(rng, sd[0], sd[1], (i+t)%5),
					Stat:   TestStat((i + t) % 3),
				})
			}
			out = append(out, s)
		}
	}
	return out
}

// pinEarlyCases are single-test streams for the early-stopping policy:
// permutation counts from one block to 32, with null pairs that truncate
// and clear pairs that run in full.
func pinEarlyCases() []pinStream {
	perms := []int{64, 200, 263, 1024, 2048}
	sides := [][2]int{{5, 5}, {20, 31}, {60, 60}}
	var out []pinStream
	for pi, nperm := range perms {
		for si, sd := range sides {
			for kind := 0; kind < 5; kind++ {
				i := (pi*len(sides)+si)*5 + kind
				rng := rand.New(rand.NewSource(int64(5000 + i)))
				out = append(out, pinStream{
					nx: sd[0], ny: sd[1], nperm: nperm, seed: rng.Int63(),
					tests: []PermTest{{Pooled: pinValues(rng, sd[0], sd[1], kind), Stat: TestStat(i % 3)}},
				})
			}
		}
	}
	return out
}

// pinEarlyAlphas are the stop levels the early cases are pinned at.
var pinEarlyAlphas = []float64{0.05, 0.01}

func bitsHex(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// pinnedLines runs every pinned case through PermTests at the given
// thread count and formats the results in the pinned file's line format.
func pinnedLines(t *testing.T, threads int) []string {
	t.Helper()
	var lines []string
	for si, s := range pinEagerGrid() {
		res, err := PermTests(context.Background(), s.nx, s.ny, s.nperm, s.seed, threads, 0, s.tests)
		if err != nil {
			t.Fatal(err)
		}
		for ti, r := range res {
			lines = append(lines, fmt.Sprintf("eager %d %d %s %s", si, ti, bitsHex(r.Obs), bitsHex(r.P)))
		}
	}
	for ci, s := range pinEarlyCases() {
		for _, alpha := range pinEarlyAlphas {
			res, err := PermTests(context.Background(), s.nx, s.ny, s.nperm, s.seed, threads, alpha, s.tests)
			if err != nil {
				t.Fatal(err)
			}
			r := res[0]
			lines = append(lines, fmt.Sprintf("early %d %v %s %s %d", ci, alpha, bitsHex(r.Obs), bitsHex(r.P), r.Perms))
		}
	}
	return lines
}

// TestPermTestsMatchPinned checks PermTests against the pinned file, bit
// for bit, at several thread counts.
func TestPermTestsMatchPinned(t *testing.T) {
	want := testutil.ReadPinned(t, pinnedFile, pinnedHeader, func() []string { return pinnedLines(t, 1) })
	for _, threads := range []int{1, 2, 3, 8} {
		got := pinnedLines(t, threads)
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d result lines, pinned file has %d", threads, len(got), len(want))
		}
		bad := 0
		for i := range got {
			if got[i] != want[i] {
				if bad++; bad <= 5 {
					t.Errorf("threads=%d: got  %q\n\twant %q", threads, got[i], want[i])
				}
			}
		}
		if bad > 5 {
			t.Errorf("threads=%d: %d mismatching lines in all", threads, bad)
		}
	}
}
