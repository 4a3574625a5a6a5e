package stats

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"comparenb/internal/faultinject"
)

// clearPair returns two samples whose means are so far apart that the
// permutation null is rejected decisively — the early stop's
// "certainly insignificant" direction never applies, but a null pair
// (below) stops after one block.
func clearPair(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = 100 + float64(i%7)
		ys[i] = float64(i % 7)
	}
	return xs, ys
}

// nullPair returns two samples drawn from the same deterministic
// sequence, so the true p-value is large and the early stop should
// certify "insignificant" after very few blocks.
func nullPair(n int) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = float64((i * 37) % 11)
		ys[i] = float64((i*37 + 5) % 11)
	}
	return xs, ys
}

func pooled(xs, ys []float64) []float64 {
	return append(append(make([]float64, 0, len(xs)+len(ys)), xs...), ys...)
}

// clearTests scores a clear pair of n-row sides by mean and by median:
// their exceedance estimates stay near 0, so an alpha below every
// Hoeffding interval never stops them.
func clearTests(n int) []PermTest {
	pl := pooled(clearPair(n))
	return []PermTest{{Pooled: pl, Stat: MeanDiff}, {Pooled: pl, Stat: MedianDiff}}
}

func TestEarlyStopTruncatesNullPair(t *testing.T) {
	xs, ys := nullPair(60)
	const nperm = 2048
	r := permTest1(t, len(xs), len(ys), nperm, 7, 1, 0.05, pooled(xs, ys), MeanDiff)
	if math.IsNaN(r.Obs) {
		t.Fatal("observed statistic is NaN on finite data")
	}
	if r.Perms >= nperm {
		t.Errorf("null pair evaluated all %d permutations; early stop never triggered", r.Perms)
	}
	if r.Perms%permBlock != 0 && r.Perms != nperm {
		t.Errorf("truncation point %d is not a block boundary", r.Perms)
	}
	if r.P <= 0.05 {
		t.Errorf("null pair p = %v, want clearly insignificant", r.P)
	}
}

// TestEarlyStopClearPairRunsInFull: a decisively significant pair at a
// stop level far below its p-value resolution can never be certified
// either way, so the early policy evaluates every permutation.
func TestEarlyStopClearPairRunsInFull(t *testing.T) {
	xs, ys := clearPair(40)
	const nperm = 300
	r := permTest1(t, len(xs), len(ys), nperm, 5, 1, 0.001, pooled(xs, ys), MeanDiff)
	if r.Perms != nperm {
		t.Errorf("clear pair stopped at %d of %d permutations", r.Perms, nperm)
	}
	if want := 1 / float64(nperm+1); r.P != want { // exact: no exceedance gives exactly 1/(nperm+1)
		t.Errorf("clear pair p = %v, want %v", r.P, want)
	}
}

// TestEarlyStopPrefixMatchesFullTest: on clear pairs with an alpha no
// interval can clear (phat-eps > alpha needs phat > eps, and nothing fits
// below the smallest positive float), the early policy evaluates all
// nperm permutations and must equal the eager policy bit for bit, on the
// shared stream, at any thread count.
func TestEarlyStopPrefixMatchesFullTest(t *testing.T) {
	const n, nperm, seed = 40, 200, 99
	tests := clearTests(n)
	unreachable := math.Nextafter(0, 1)
	for _, threads := range []int{1, 3} {
		early, err := PermTests(context.Background(), n, n, nperm, seed, threads, unreachable, tests)
		if err != nil {
			t.Fatal(err)
		}
		full, err := PermTests(context.Background(), n, n, nperm, seed, threads, 0, tests)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(early, full) {
			t.Errorf("threads=%d: untruncated early policy %+v differs from eager %+v", threads, early, full)
		}
	}
}

func TestEarlyStopDeterministic(t *testing.T) {
	xs, ys := nullPair(48)
	pl := pooled(xs, ys)
	r1 := permTest1(t, len(xs), len(ys), 1024, 3, 1, 0.05, pl, VarDiff)
	for _, threads := range []int{1, 2, 8} {
		r2 := permTest1(t, len(xs), len(ys), 1024, 3, threads, 0.05, pl, VarDiff)
		if r1.Perms != r2.Perms || r1.P != r2.P { // exact: determinism is the contract under test
			t.Errorf("threads=%d: (%v, %d) vs serial (%v, %d)", threads, r2.P, r2.Perms, r1.P, r1.Perms)
		}
	}
}

// TestEarlyStopSharedStream: tests on one stream stop independently — a
// null test truncating never changes a clear test scored on the same
// blocks, which matches its own single-test run bit for bit.
func TestEarlyStopSharedStream(t *testing.T) {
	nx, ny := 60, 60
	nxs, nys := nullPair(nx)
	cxs, cys := clearPair(nx)
	tests := []PermTest{{Pooled: pooled(nxs, nys), Stat: MeanDiff}, {Pooled: pooled(cxs, cys), Stat: MeanDiff}}
	for _, threads := range []int{1, 2, 8} {
		res, err := PermTests(context.Background(), nx, ny, 1024, 13, threads, 0.001, tests)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Perms >= 1024 || res[1].Perms != 1024 {
			t.Fatalf("threads=%d: perms (null %d, clear %d), want null truncated and clear in full", threads, res[0].Perms, res[1].Perms)
		}
		for i, pt := range tests {
			alone := permTest1(t, nx, ny, 1024, 13, threads, 0.001, pt.Pooled, pt.Stat)
			if !sameResults([]PermResult{alone}, res[i:i+1]) {
				t.Errorf("threads=%d test %d: shared %+v, alone %+v", threads, i, res[i], alone)
			}
		}
	}
}

func TestEarlyStopCancellation(t *testing.T) {
	xs, ys := clearPair(40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer faultinject.Set(faultinject.StatsPermBlock, faultinject.OnCall(2, cancel))()
	res, err := PermTests(ctx, len(xs), len(ys), 2048, 1, 1, math.Nextafter(0, 1), []PermTest{{Pooled: pooled(xs, ys), Stat: MeanDiff}})
	if err == nil || res != nil {
		t.Fatalf("cancelled early-stop test returned (%v, %v), want no results and an error", res, err)
	}
}

// TestEarlyStopFiresSitePerBlock: the fault site fires once per block
// the serial path evaluates, and the early stop ends the stream there.
func TestEarlyStopFiresSitePerBlock(t *testing.T) {
	var fired atomic.Int64
	defer faultinject.Set(faultinject.StatsPermBlock,
		faultinject.Always(func() { fired.Add(1) }))()
	for _, tc := range []struct {
		name  string
		pair  func(n int) (xs, ys []float64)
		alpha float64
	}{
		{"clear pair, unreachable alpha", clearPair, math.Nextafter(0, 1)},
		{"null pair", nullPair, 0.05},
	} {
		xs, ys := tc.pair(30)
		fired.Store(0)
		r := permTest1(t, len(xs), len(ys), 256, 5, 1, tc.alpha, pooled(xs, ys), MeanDiff)
		if want := int64((r.Perms + permBlock - 1) / permBlock); fired.Load() != want {
			t.Errorf("%s: StatsPermBlock fired %d times for %d perms, want %d", tc.name, fired.Load(), r.Perms, want)
		}
	}
}

func TestEarlyStopDegenerateInputs(t *testing.T) {
	r := permTest1(t, 0, 0, 100, 1, 1, 0.05, nil, MeanDiff)
	if !math.IsNaN(r.Obs) || r.P != 1 || r.Perms != 0 {
		t.Errorf("empty sides: %+v, want NaN/1/0", r)
	}
	nan := []float64{math.NaN(), 1, 2, 3}
	r = permTest1(t, 2, 2, 100, 1, 1, 0.05, nan, MeanDiff)
	if !math.IsNaN(r.Obs) || r.P != 1 || r.Perms != 0 {
		t.Errorf("NaN pool: %+v, want NaN observed, p=1, no permutations", r)
	}
}
