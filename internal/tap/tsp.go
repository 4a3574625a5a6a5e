package tap

import "math"

// insertionPath builds a path over subset by cheapest insertion and
// returns its total length: an upper bound on the minimum Hamiltonian
// path, used when the subset exceeds the Held–Karp cap.
func insertionPath(inst *Instance, subset []int) (order []int, total float64) {
	var seq []int
	cur := 0.0
	for _, q := range subset {
		pos, newDist := bestInsertion(inst, seq, cur, q)
		seq = append(seq, 0)
		copy(seq[pos+1:], seq[pos:])
		seq[pos] = q
		cur = newDist
	}
	return seq, cur
}

// mstWeight computes the minimum spanning tree weight over the subset
// (Prim's algorithm). The MST weight is a lower bound on the minimum
// Hamiltonian path over the same vertices (a path is a spanning tree), and
// in a metric space the minimum path itself is monotone under adding
// vertices (drop the new vertex and shortcut). Chaining the two:
// MST(S) > ε_d  ⇒  minPath(S) > ε_d  ⇒  minPath(S′) > ε_d for all S′ ⊇ S,
// which makes MST a valid superset-pruning bound for the branch-and-bound.
// (MST weight alone is not monotone under vertex addition — a Steiner-like
// point can shrink the tree — so the chain above is the needed argument.)
func mstWeight(inst *Instance, subset []int) float64 {
	k := len(subset)
	if k <= 1 {
		return 0
	}
	inTree := make([]bool, k)
	key := make([]float64, k)
	for i := range key {
		key[i] = math.Inf(1)
	}
	key[0] = 0
	total := 0.0
	for iter := 0; iter < k; iter++ {
		best := -1
		for i := 0; i < k; i++ {
			if !inTree[i] && (best == -1 || key[i] < key[best]) {
				best = i
			}
		}
		inTree[best] = true
		total += key[best]
		for i := 0; i < k; i++ {
			if !inTree[i] {
				if d := inst.Dist(subset[best], subset[i]); d < key[i] {
					key[i] = d
				}
			}
		}
	}
	return total
}
