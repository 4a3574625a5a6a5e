package tap

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// minPath is the length of heldKarpPath's exact minimum path over subset.
func minPath(inst *Instance, subset []int) float64 {
	_, dist := heldKarpPath(inst, subset)
	return dist
}

// bruteForce enumerates every subset of size ≤ budget and every ordering
// feasibility via Held–Karp, returning the optimal interest. Only for tiny
// instances.
func bruteForce(inst *Instance, epsT, epsD float64) float64 {
	n := inst.N()
	best := 0.0
	for mask := 1; mask < 1<<n; mask++ {
		var subset []int
		cost, interest := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, i)
				cost += inst.Cost[i]
				interest += inst.Interest[i]
			}
		}
		if cost > epsT+1e-12 || interest <= best {
			continue
		}
		if minPath(inst, subset) <= epsD+1e-12 {
			best = interest
		}
	}
	return best
}

func TestHeldKarpAgainstBruteForcePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := RandomInstance(7, rng)
	subset := []int{0, 2, 3, 5, 6}
	want := math.Inf(1)
	perm := make([]int, len(subset))
	var rec func(used []bool, k int, cur float64)
	rec = func(used []bool, k int, cur float64) {
		if cur >= want {
			return
		}
		if k == len(subset) {
			want = cur
			return
		}
		for i, u := range used {
			if u {
				continue
			}
			used[i] = true
			perm[k] = subset[i]
			add := 0.0
			if k > 0 {
				add = inst.Dist(perm[k-1], subset[i])
			}
			rec(used, k+1, cur+add)
			used[i] = false
		}
	}
	rec(make([]bool, len(subset)), 0, 0)
	order, dist := heldKarpPath(inst, subset)
	if math.Abs(dist-want) > 1e-9 {
		t.Errorf("heldKarpPath dist = %v, want %v", dist, want)
	}
	if got := inst.Evaluate(order).TotalDist; math.Abs(got-want) > 1e-9 {
		t.Errorf("reconstructed order has dist %v, want %v", got, want)
	}
}

func TestHeldKarpSmallCases(t *testing.T) {
	inst := lineInstance([]float64{1, 1, 1}, []float64{0, 3, 10})
	if got := minPath(inst, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := minPath(inst, []int{1}); got != 0 {
		t.Errorf("single = %v", got)
	}
	if got := minPath(inst, []int{0, 2}); got != 10 {
		t.Errorf("pair = %v", got)
	}
	if got := minPath(inst, []int{0, 1, 2}); got != 10 {
		t.Errorf("line of three = %v, want 10 (visit in order)", got)
	}
}

func TestMSTLowerBoundsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	inst := RandomInstance(12, rng)
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		subset := rng.Perm(12)[:k]
		mst := mstWeight(inst, subset)
		path := minPath(inst, subset)
		if mst > path+1e-9 {
			t.Fatalf("MST %v exceeds min path %v", mst, path)
		}
	}
}

// TestMinPathMonotoneUnderAddition verifies the property the exact
// solver's superset pruning actually relies on: in a metric space the
// minimum Hamiltonian path can only grow when a vertex is added. (MST
// weight alone is NOT monotone — a central "Steiner" point can shrink the
// tree — so the solver chains MST(S) ≤ minPath(S) ≤ minPath(S ∪ v).)
func TestMinPathMonotoneUnderAddition(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := RandomInstance(15, rng)
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(8)
		perm := rng.Perm(15)
		subset := perm[:k]
		super := perm[:k+1]
		if minPath(inst, subset) > minPath(inst, super)+1e-9 {
			t.Fatalf("min path not monotone: %v > %v",
				minPath(inst, subset), minPath(inst, super))
		}
	}
}

func TestSolveExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		inst := RandomInstance(9, rng)
		epsT := float64(2 + rng.Intn(4))
		epsD := 0.5 + rng.Float64()*1.5
		want := bruteForce(inst, epsT, epsD)
		got, stats := SolveExact(inst, epsT, epsD, ExactOptions{})
		if !stats.Certified {
			t.Fatalf("trial %d: not certified", trial)
		}
		if math.Abs(got.TotalInterest-want) > 1e-9 {
			t.Errorf("trial %d: exact = %v, brute force = %v", trial, got.TotalInterest, want)
		}
		if err := inst.Feasible(got, epsT, epsD); err != nil {
			t.Errorf("trial %d: exact solution infeasible: %v", trial, err)
		}
	}
}

func TestSolveExactBeatsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		inst := RandomInstance(30, rng)
		epsT, epsD := 6.0, 1.2
		exact, stats := SolveExact(inst, epsT, epsD, ExactOptions{})
		if !stats.Certified {
			t.Fatal("not certified")
		}
		greedy := Greedy(inst, epsT, epsD)
		if greedy.TotalInterest > exact.TotalInterest+1e-9 {
			t.Errorf("greedy %v beat exact %v", greedy.TotalInterest, exact.TotalInterest)
		}
	}
}

func TestSolveExactTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	inst := RandomInstance(400, rng)
	sol, stats := SolveExact(inst, 12, 0.8, ExactOptions{Timeout: 20 * time.Millisecond})
	if !stats.TimedOut {
		t.Skip("instance solved within 20ms; timeout path not exercised")
	}
	if stats.Certified {
		t.Error("timed-out search must not be certified")
	}
	// Incumbent must still be feasible.
	if err := inst.Feasible(sol, 12, 0.8); err != nil {
		t.Errorf("incumbent infeasible: %v", err)
	}
}

func TestSolveExactEmptyFeasibleSet(t *testing.T) {
	inst := lineInstance([]float64{1, 1}, []float64{0, 100})
	sol, stats := SolveExact(inst, 0, 10, ExactOptions{})
	if len(sol.Order) != 0 {
		t.Errorf("budget 0 should select nothing, got %v", sol.Order)
	}
	if !stats.Certified {
		t.Error("trivial search should be certified")
	}
}

func TestSolveExactDistanceBinding(t *testing.T) {
	// Three queries on a line; budget allows all three but ε_d forces
	// dropping the far one even though it is the most interesting.
	inst := lineInstance([]float64{0.9, 0.5, 0.4}, []float64{100, 0, 0.5})
	sol, _ := SolveExact(inst, 3, 1.0, ExactOptions{})
	if math.Abs(sol.TotalInterest-0.9) > 1e-12 {
		// {1,2} yields 0.9 as well; either singleton {0} (0.9) or pair
		// {1,2} (0.9) is optimal.
		t.Errorf("optimal interest = %v, want 0.9", sol.TotalInterest)
	}
	if err := inst.Feasible(sol, 3, 1.0); err != nil {
		t.Error(err)
	}
}
