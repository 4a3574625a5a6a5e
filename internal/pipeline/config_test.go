package pipeline

import "testing"

// TestParseSolverRoundTrip: ParseSolver inverts String for every solver
// kind and refuses any other name.
func TestParseSolverRoundTrip(t *testing.T) {
	for _, s := range []SolverKind{SolverHeuristic, SolverExact, SolverTopK, SolverHeuristicPlus} {
		got, err := ParseSolver(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "Exact", "heuristic+3opt", "SolverKind(?)"} {
		if _, err := ParseSolver(bad); err == nil {
			t.Errorf("ParseSolver(%q) accepted an unknown name", bad)
		}
	}
}
