package pipeline

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/governor"
	"comparenb/internal/insight"
	"comparenb/internal/testutil"
)

// reportFields serialises the run report and parses it back, so tests can
// assert on the exact JSON schema a tool consumer would see.
func reportFields(t *testing.T, res *Result) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var js map[string]any
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		t.Fatal(err)
	}
	return js
}

func hasPhase(d Degradation, phase string) bool {
	for _, p := range d.Phases {
		if p == phase {
			return true
		}
	}
	return false
}

// TestForcedStatsDegradeDeterministicAcrossThreads pins the Degrade rung
// of the stats ladder and checks the contract the ladder was designed
// around: a degraded run is not byte-identical to a full run, but it IS
// byte-identical to itself at every thread count — the early-stopping
// kernel's truncation points are pure functions of the data, never of
// scheduling.
func TestForcedStatsDegradeDeterministicAcrossThreads(t *testing.T) {
	rel := goldenRelation()
	var refNB, refRep []byte
	for _, threads := range []int{1, 2, 8} {
		cfg := budgetConfig(threads)
		cfg.forceStatsLevel = governor.Degrade
		res, err := Generate(rel, cfg)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if !hasPhase(res.Degraded, "stats") {
			t.Fatalf("threads=%d: forced Degrade not recorded: %+v", threads, res.Degraded)
		}
		if res.Degraded.PermsEffective <= 0 || res.Degraded.PermsEffective > cfg.Perms {
			t.Errorf("threads=%d: perms_effective = %d, want in (0, %d]",
				threads, res.Degraded.PermsEffective, cfg.Perms)
		}
		if res.Degraded.PairsSkipped != 0 {
			t.Errorf("threads=%d: Degrade skipped %d pairs; only Shed drops pairs", threads, res.Degraded.PairsSkipped)
		}
		nb, rep := renderMarkdown(t, res), reportJSON(t, res)
		if threads == 1 {
			refNB, refRep = nb, rep
			continue
		}
		if !bytes.Equal(nb, refNB) {
			t.Errorf("threads=%d: degraded notebook differs from serial degraded run", threads)
		}
		if !bytes.Equal(rep, refRep) {
			t.Errorf("threads=%d: degraded report differs from serial degraded run", threads)
		}
	}
}

// TestForcedStatsShedSkipsLowPriorityPairs pins the Shed rung: pairs past
// the top max(EpsT, 4) priority ranks are dropped without testing, the
// survivors run with block-aligned truncated permutations, and the whole
// concession is named in the report JSON.
func TestForcedStatsShedSkipsLowPriorityPairs(t *testing.T) {
	cfg := budgetConfig(2) // EpsT = 3 → minKeep = 4; golden relation has 5 pairs
	cfg.forceStatsLevel = governor.Shed
	res, err := Generate(goldenRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.PairsSkipped != 1 {
		t.Errorf("pairs skipped = %d, want exactly the 1 pair outside the top 4 ranks", res.Degraded.PairsSkipped)
	}
	shedCap := permsShedCap(cfg.Perms, cfg.Alpha)
	if res.Degraded.PermsEffective <= 0 || res.Degraded.PermsEffective > shedCap {
		t.Errorf("perms_effective = %d, want in (0, %d]", res.Degraded.PermsEffective, shedCap)
	}
	if nb := renderMarkdown(t, res); len(nb) == 0 {
		t.Error("shed run rendered an empty notebook")
	}
	js := reportFields(t, res)
	if js["pairs_skipped"] != float64(1) {
		t.Errorf("serialised pairs_skipped = %v, want 1", js["pairs_skipped"])
	}
	phases, _ := js["phase_degraded"].([]any)
	if len(phases) == 0 || phases[0] != "stats" {
		t.Errorf("serialised phase_degraded = %v, want [stats ...]", js["phase_degraded"])
	}

	// Same forced rung, different thread count: identical bytes.
	cfg2 := budgetConfig(7)
	cfg2.forceStatsLevel = governor.Shed
	res2, err := Generate(goldenRelation(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, res), reportJSON(t, res2)) {
		t.Error("shed run not deterministic across thread counts")
	}
}

// TestForcedHypoShedDropsCandidates pins the hypothesis phase's Shed
// rung: the candidate set is capped to the top max(EpsT, 4) insights by
// significance, and the drop count lands in the report.
func TestForcedHypoShedDropsCandidates(t *testing.T) {
	cfg := budgetConfig(2)
	cfg.InsightTypes = insight.ExtendedTypes // enough significants to exceed the cap
	cfg.forceHypoLevel = governor.Shed
	res, err := Generate(goldenRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded.HypoDropped <= 0 {
		t.Fatalf("forced hypo Shed dropped nothing: %+v", res.Degraded)
	}
	if !hasPhase(res.Degraded, "hypo") {
		t.Errorf("phases = %v, want to include hypo", res.Degraded.Phases)
	}
	if hasPhase(res.Degraded, "stats") {
		t.Errorf("phases = %v: stats was not degraded", res.Degraded.Phases)
	}
	if len(res.Insights) > hypoCandidateCap(governor.Shed, cfg.EpsT) {
		t.Errorf("%d insights survived a cap of %d", len(res.Insights), hypoCandidateCap(governor.Shed, cfg.EpsT))
	}
	if len(res.Solution.Order) == 0 {
		t.Error("capped run selected no queries")
	}
	js := reportFields(t, res)
	if js["hypo_dropped"] != float64(res.Degraded.HypoDropped) {
		t.Errorf("serialised hypo_dropped = %v, want %d", js["hypo_dropped"], res.Degraded.HypoDropped)
	}
}

// TestWallClockExhaustionShedsEveryPhase burns the entire budget at the
// first governor rebalance with an injected sleep — a deterministic
// logical point, not a racy timer — so every later phase starts past its
// deadline: stats sheds pairs, TAP answers from a heuristic rung, and the
// run still returns a complete feasible notebook naming it all.
func TestWallClockExhaustionShedsEveryPhase(t *testing.T) {
	defer faultinject.Set(faultinject.GovernorRebalance,
		faultinject.OnCall(1, func() { time.Sleep(50 * time.Millisecond) }))()
	cfg := budgetConfig(2)
	cfg.TimeBudget = time.Millisecond
	before := runtime.NumGoroutine()
	res, err := Generate(goldenRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(res.Degraded, "stats") {
		t.Errorf("phases = %v, want stats shed after budget exhaustion", res.Degraded.Phases)
	}
	if !res.TAP.Degraded || !hasPhase(res.Degraded, "tap") {
		t.Errorf("TAP did not degrade on an exhausted budget: %+v / %v", res.TAP, res.Degraded.Phases)
	}
	if res.Degraded.PairsSkipped == 0 {
		t.Error("exhausted budget shed no pairs")
	}
	inst := Instance(res.Queries, cfg.Weights)
	if err := inst.Feasible(res.Solution, float64(cfg.EpsT), cfg.EpsD); err != nil {
		t.Errorf("degraded solution infeasible: %v", err)
	}
	if nb := renderMarkdown(t, res); len(nb) == 0 {
		t.Error("exhausted-budget run rendered an empty notebook")
	}
	testutil.WaitGoroutinesSettle(t, before)
}

// TestMemBudgetDegradesEngineAndCompletes arms a cube-cache memory budget
// far below the run's working set: the run must complete — admission
// refuses caching, never answers — and the report must count the
// evictions/refusals under "engine".
func TestMemBudgetDegradesEngineAndCompletes(t *testing.T) {
	cfg := budgetConfig(1)
	cfg.MemBudget = 300 // roughly one pair cube of the golden relation
	res, err := Generate(goldenRelation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(res.Degraded, "engine") {
		t.Fatalf("phases = %v, want engine under a 300-byte budget", res.Degraded.Phases)
	}
	if res.Degraded.MemEvictions == 0 {
		t.Error("no admission actions recorded under a 300-byte budget")
	}
	cs := res.cache.Stats()
	if cs.Bytes > cfg.MemBudget {
		t.Errorf("cache holds %d B over the %d B budget", cs.Bytes, cfg.MemBudget)
	}
	// Admission degrades caching, never answers: the notebook must be
	// byte-identical to the unbudgeted run's.
	plain, err := Generate(goldenRelation(), budgetConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderMarkdown(t, res), renderMarkdown(t, plain)) {
		t.Error("mem budget changed notebook bytes; admission must only affect caching")
	}
	js := reportFields(t, res)
	if js["mem_evictions"] != float64(res.Degraded.MemEvictions) {
		t.Errorf("serialised mem_evictions = %v, want %d", js["mem_evictions"], res.Degraded.MemEvictions)
	}
	if cfgJS, ok := js["config"].(map[string]any); !ok || cfgJS["mem_budget"] != float64(300) {
		t.Errorf("serialised config.mem_budget = %v, want 300", js["config"])
	}
}
