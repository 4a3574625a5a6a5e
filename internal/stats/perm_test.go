package stats

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"comparenb/internal/faultinject"
	"comparenb/internal/testutil"
)

// permTest1 runs a single test on its own stream.
func permTest1(t *testing.T, nx, ny, nperm int, seed int64, threads int, alpha float64, pooled []float64, stat TestStat) PermResult {
	t.Helper()
	res, err := PermTests(context.Background(), nx, ny, nperm, seed, threads, alpha, []PermTest{{Pooled: pooled, Stat: stat}})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// streamTests builds one test per statistic on each of two measure
// vectors, the shape of a shared stream in the pipeline.
func streamTests(nx, ny int, seed int64) []PermTest {
	rng := rand.New(rand.NewSource(seed))
	var tests []PermTest
	for m := 0; m < 2; m++ {
		pooled := make([]float64, nx+ny)
		for i := range pooled {
			pooled[i] = rng.NormFloat64()
			if i < nx {
				pooled[i] += 0.3 * float64(m+1)
			}
		}
		for _, stat := range []TestStat{MeanDiff, VarDiff, MedianDiff} {
			tests = append(tests, PermTest{Pooled: pooled, Stat: stat})
		}
	}
	return tests
}

func sameResults(a, b []PermResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Obs) != math.Float64bits(b[i].Obs) ||
			math.Float64bits(a[i].P) != math.Float64bits(b[i].P) || a[i].Perms != b[i].Perms {
			return false
		}
	}
	return true
}

// TestSeededPermsThreadInvariant pins the block-stream contract: results
// are a pure function of (nx, ny, nperm, seed, tests) — drawing and
// scoring the blocks on more workers cannot change a bit, at every
// permutation count around the block width and under both policies.
func TestSeededPermsThreadInvariant(t *testing.T) {
	const nx, ny = 37, 53
	tests := streamTests(nx, ny, 4)
	for _, nperm := range []int{1, permBlock - 1, permBlock, permBlock + 1, 4*permBlock + 7} {
		for _, alpha := range []float64{0, 0.05} {
			base, err := PermTests(context.Background(), nx, ny, nperm, 99, 1, alpha, tests)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 4, 8} {
				par, err := PermTests(context.Background(), nx, ny, nperm, 99, threads, alpha, tests)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResults(base, par) {
					t.Fatalf("nperm=%d alpha=%v threads=%d: %+v, serial %+v", nperm, alpha, threads, par, base)
				}
			}
		}
	}
}

// TestPermTestsSharedMatchesAlone: a test's exceedances depend only on
// the shared stream and its own column, so its result is the same bits
// whether it is scored alone (its column summed in the pass that places
// side X) or beside three columns and a median test (the third column
// summed in a pass of its own), also when early stopping closes tests
// block by block and a column moves from one pass to the other.
func TestPermTestsSharedMatchesAlone(t *testing.T) {
	const nx, ny, nperm = 41, 67, 5*permBlock + 3
	rng := rand.New(rand.NewSource(8))
	var tests []PermTest
	for m := 0; m < 3; m++ {
		pooled := make([]float64, nx+ny)
		for i := range pooled {
			pooled[i] = rng.NormFloat64() * float64(1+m)
			if i < nx {
				pooled[i] += 0.25 * float64(m)
			}
		}
		tests = append(tests, PermTest{Pooled: pooled, Stat: MeanDiff}, PermTest{Pooled: pooled, Stat: VarDiff})
	}
	tests = append(tests, PermTest{Pooled: tests[0].Pooled, Stat: MedianDiff})
	for _, alpha := range []float64{0, 0.05} {
		for _, threads := range []int{1, 3} {
			for _, set := range [][]PermTest{tests, tests[:6], tests[:4]} {
				shared, err := PermTests(context.Background(), nx, ny, nperm, 17, threads, alpha, set)
				if err != nil {
					t.Fatal(err)
				}
				for i, pt := range set {
					alone := permTest1(t, nx, ny, nperm, 17, threads, alpha, pt.Pooled, pt.Stat)
					if !sameResults(shared[i:i+1], []PermResult{alone}) {
						t.Errorf("alpha=%v threads=%d %d tests, test %d (%s): shared %+v, alone %+v",
							alpha, threads, len(set), i, pt.Stat, shared[i], alone)
					}
				}
			}
		}
	}
}

// TestPermTestsPairAllocs pins BenchmarkPermTestsPair's allocations: a
// call allocates its run's bookkeeping, one worker and the results, and
// nothing per permutation.
func TestPermTestsPairAllocs(t *testing.T) {
	n, tests := pairTests()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := PermTests(context.Background(), n, n, 30, 1, 1, 0, tests); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 15 {
		t.Errorf("PermTests on a pair: %v allocations per call, want at most 15", allocs)
	}
}

// TestPermTestMedianAllocs: a median test selects in its worker's
// scratch, so a call allocates the same at 64 and at 640 permutations.
func TestPermTestMedianAllocs(t *testing.T) {
	tests := []PermTest{{Pooled: benchPool(2*200, 2), Stat: MedianDiff}}
	allocs := func(nperm int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := PermTests(context.Background(), 200, 200, nperm, 1, 1, 0, tests); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a64, a640 := allocs(64), allocs(640); a640 != a64 {
		t.Errorf("median test: %v allocations per call at 64 permutations, %v at 640; want no allocation per permutation", a64, a640)
	}
}

func TestSeededPermsDifferAcrossSeeds(t *testing.T) {
	a := newPermWorker(20, 20, false)
	b := newPermWorker(20, 20, false)
	a.startBlock(1, 0)
	b.startBlock(2, 0)
	same := true
	for k := 0; k < permBlock; k++ {
		xa, _, _, _, _ := a.nextPerm(nil, nil)
		xb, _, _, _, _ := b.nextPerm(nil, nil)
		for i := range xa {
			if xa[i] != xb[i] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 drew identical permutation blocks")
	}
}

// TestPermTestsThreadsBitIdentical checks the scoring half: splitting the
// blocks across workers leaves every test of a shared stream bit-identical
// for every statistic (exceedances are integer counts folded in block
// order).
func TestPermTestsThreadsBitIdentical(t *testing.T) {
	const nx, ny = 80, 120
	tests := streamTests(nx, ny, 5)
	serial, err := PermTests(context.Background(), nx, ny, 500, 11, 1, 0, tests)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8} {
		par, err := PermTests(context.Background(), nx, ny, 500, 11, threads, 0, tests)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(serial, par) {
			t.Errorf("threads=%d: %+v, serial %+v", threads, par, serial)
		}
	}
	for i, r := range serial {
		if r.P <= 0 || r.P > 1 || r.Perms != 500 {
			t.Errorf("test %d (%s): p = %v over %d perms, want p in (0, 1] over 500", i, tests[i].Stat, r.P, r.Perms)
		}
	}
}

// TestSeededMatchesSequentialFirstBlock pins the stream layout against a
// from-scratch replay: block b is a partial Fisher–Yates over the
// identity pool driven by a fresh rand.New(rand.NewSource(mixSeed(seed,
// b))), so a reused, reseeded worker must draw exactly the same indexes.
func TestSeededMatchesSequentialFirstBlock(t *testing.T) {
	const nx, ny, seed = 15, 25, 77
	w := newPermWorker(nx, ny, false)
	for _, b := range []int{0, 1, 5} {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(b))))
		pool := make([]int32, nx+ny)
		for i := range pool {
			pool[i] = int32(i)
		}
		w.startBlock(seed, b)
		for k := 0; k < permBlock; k++ {
			for i := 0; i < nx; i++ {
				j := i + rng.Intn(len(pool)-i)
				pool[i], pool[j] = pool[j], pool[i]
			}
			got, _, _, _, _ := w.nextPerm(nil, nil)
			for i := range got {
				if got[i] != pool[i] {
					t.Fatalf("block %d perm %d index %d: worker %d, replay %d", b, k, i, got[i], pool[i])
				}
			}
		}
	}
}

// TestCtxVariantsMatchUncancelled: a live cancellable context never
// perturbs the results, at every thread count, under both policies.
func TestCtxVariantsMatchUncancelled(t *testing.T) {
	const nx, ny, nperm = 9, 7, 500
	tests := streamTests(nx, ny, 6)
	for _, alpha := range []float64{0, 0.05} {
		want, err := PermTests(context.Background(), nx, ny, nperm, 99, 1, alpha, tests)
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 5} {
			ctx, cancel := context.WithCancel(context.Background())
			got, err := PermTests(ctx, nx, ny, nperm, 99, threads, alpha, tests)
			cancel()
			if err != nil {
				t.Fatalf("alpha=%v threads=%d: unexpected error %v", alpha, threads, err)
			}
			if !sameResults(want, got) {
				t.Fatalf("alpha=%v threads=%d: %+v != background %+v", alpha, threads, got, want)
			}
		}
	}
}

// cancelPolicies are the two stop levels the cancellation tests cover: the
// eager policy and an early stop clearTests never satisfy, so both run
// every block until cancelled.
var cancelPolicies = []float64{0, math.Nextafter(0, 1)}

// TestPermTestsCancelled: a pre-cancelled context aborts with the
// context's error and no results, and leaves no goroutine behind.
func TestPermTestsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tests := clearTests(5)
	for _, alpha := range cancelPolicies {
		for _, threads := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			res, err := PermTests(ctx, 5, 5, 1000, 1, threads, alpha, tests)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Errorf("alpha=%v threads=%d: (%v, %v), want (nil, context.Canceled)", alpha, threads, res, err)
			}
			testutil.WaitGoroutinesSettle(t, before)
		}
	}
}

// checkCancelMidway injects a cancellation at the k-th block checkpoint
// via the fault-injection registry and checks the kernel aborts with the
// context's error and no results on the serial and parallel paths under
// both policies, leaving no goroutine behind. The hook runs under a lock,
// so every later checkpoint sees the cancellation: each worker passes at
// most one more, and the serial path stops right at the k-th.
func checkCancelMidway(t *testing.T, nx, ny int, tests []PermTest) {
	t.Helper()
	const nblocks = 10
	for _, alpha := range cancelPolicies {
		for _, threads := range []int{1, 2, 8} {
			for _, k := range []uint64{1, 3} {
				before := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				var mu sync.Mutex
				var fired uint64
				restore := faultinject.Set(faultinject.StatsPermBlock, func(string) {
					mu.Lock()
					defer mu.Unlock()
					if fired++; fired == k {
						cancel()
					}
				})
				res, err := PermTests(ctx, nx, ny, nblocks*permBlock, 3, threads, alpha, tests)
				restore()
				cancel()
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Errorf("alpha=%v threads=%d k=%d: (%v, %v), want (nil, context.Canceled)", alpha, threads, k, res, err)
				}
				if limit := k + uint64(min(threads, nblocks)-1); fired > limit {
					t.Errorf("alpha=%v threads=%d k=%d: %d checkpoints passed, want at most %d", alpha, threads, k, fired, limit)
				}
				testutil.WaitGoroutinesSettle(t, before)
			}
		}
	}
}

// TestPValueThreadsCtxCancelMidway: cancelling midway through a single
// test's p-value evaluation aborts it. The name is kept from the
// PValueThreadsCtx entry point this check first covered.
func TestPValueThreadsCtxCancelMidway(t *testing.T) {
	checkCancelMidway(t, 6, 6, clearTests(6)[:1])
}

// TestNewPairPermSeededCtxCancelMidway: cancelling midway through a
// stream shared by several tests aborts all of them. The name is kept
// from the NewPairPermSeededCtx stream generator this check first
// covered.
func TestNewPairPermSeededCtxCancelMidway(t *testing.T) {
	checkCancelMidway(t, 5, 5, clearTests(5))
}
