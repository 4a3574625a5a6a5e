// Package governor splits a run's soft wall-clock budget
// (pipeline.Config.TimeBudget) across the expensive pipeline phases and
// tells each phase, from measured progress, which rung of its
// degradation ladder to run at. It is the scheduling half of the
// graceful-degradation discipline of docs/ROBUSTNESS.md: the phases own
// *what* to cut (fewer permutations, fewer candidate pairs, a heuristic
// solver), the governor owns *when*.
//
// Budget split. At every phase boundary the governor re-splits whatever
// remains of the budget across the phases still to run, proportionally
// to fixed weights (permutation tests dominate the paper's pipeline, so
// they get the largest share). A phase that finishes early donates its
// slack to the later phases automatically — the split is recomputed
// from the wall clock at each StartPhase, never pre-allocated.
//
// Pressure levels. Admit projects the phase's finish time from the
// units of work already completed:
//
//	Full    — on track; run the byte-identical fast path.
//	Degrade — projected to overrun; cut per-unit work (early stopping).
//	Shed    — deadline already passed; drop low-priority units entirely.
//
// A nil *Governor (no budget configured) is valid and always answers
// Full / zero deadlines, so callers need no special-casing.
//
// Determinism. With a generous budget every Admit call observes
// now ≪ deadline and a projection far inside the allotment, so the
// governor returns Full everywhere and perturbs nothing — the
// byte-identity-when-unexhausted contract. Under pressure the chosen
// rungs depend on the wall clock; tests pin them either by forcing a
// level (the pipeline's test-only overrides) or by burning the budget
// at an exact logical operation with a faultinject.Sleep hook on the
// GovernorRebalance site.
package governor

import (
	"sync"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/obs"
)

// Phase identifies one governed pipeline phase, in execution order.
type Phase int

const (
	// Stats is the permutation-testing phase (Algorithm 1 line 3).
	Stats Phase = iota
	// Hypo is the hypothesis-evaluation phase (cube building + support).
	Hypo
	// TAP is the notebook-selection solve.
	TAP

	numPhases
)

func (p Phase) String() string {
	switch p {
	case Stats:
		return "stats"
	case Hypo:
		return "hypo"
	case TAP:
		return "tap"
	default:
		return "Phase(?)"
	}
}

// Level is a rung of a phase's degradation ladder, ordered by severity.
type Level int32

const (
	// Full runs the phase's byte-identical fast path.
	Full Level = iota
	// Degrade cuts per-unit work (e.g. early-stopped permutation tests).
	Degrade
	// Shed drops remaining low-priority work units entirely.
	Shed
)

func (l Level) String() string {
	switch l {
	case Full:
		return "full"
	case Degrade:
		return "degrade"
	case Shed:
		return "shed"
	default:
		return "Level(?)"
	}
}

// weights is the share of the remaining budget each phase receives when
// it starts, normalised over the phases not yet run. Permutation tests
// dominate the paper's runtime breakdown (Figure 8), so they get the
// largest slice; TAP, being last, always receives everything left.
var weights = [numPhases]float64{Stats: 0.6, Hypo: 0.25, TAP: 0.15}

// Governor tracks the run's deadline and the per-phase allotments. All
// methods are safe for concurrent use and nil-safe.
type Governor struct {
	start time.Time
	total time.Duration
	now   func() time.Time // test seam; time.Now in production

	mu       sync.Mutex
	phaseAt  [numPhases]time.Time // when the phase started
	deadline [numPhases]time.Time // the phase's soft deadline
	started  [numPhases]bool

	// Admission-decision counters, bound by Instrument. Nil (no-op) on an
	// uninstrumented governor. Note these are wall-clock-derived: an
	// unexhausted budget yields all-Full deterministically, but decisions
	// under pressure vary run to run, exactly like the degradation report
	// fields they explain.
	admitFull    *obs.Counter
	admitDegrade *obs.Counter
	admitShed    *obs.Counter
}

// New returns a governor for a run that started at `start` with the
// given soft budget. A non-positive budget means "ungoverned": New
// returns nil, and every method on a nil Governor is a cheap no-op.
func New(total time.Duration, start time.Time) *Governor {
	if total <= 0 {
		return nil
	}
	return &Governor{start: start, total: total, now: time.Now}
}

// Instrument binds the governor's admission counters to reg under the
// governor_admit_* names. Call before the first governed phase starts.
// Nil-safe on both sides: an ungoverned (nil) run registers nothing, so
// the exposition only mentions the governor when one actually ran.
func (g *Governor) Instrument(reg *obs.Registry) {
	if g == nil || reg == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.admitFull = reg.Counter("governor_admit_full")
	g.admitDegrade = reg.Counter("governor_admit_degrade")
	g.admitShed = reg.Counter("governor_admit_shed")
}

// StartPhase marks the phase as begun and computes its soft deadline:
// the remaining run budget times the phase's weight share over all
// not-yet-run phases. Fires the GovernorRebalance fault-injection site.
// The last phase's share is 1, so its deadline is exactly the run
// deadline start+total — which keeps the TAP solver's budget semantics
// bit-for-bit what they were before the governor existed.
func (g *Governor) StartPhase(p Phase) {
	if g == nil {
		return
	}
	faultinject.Fire(faultinject.GovernorRebalance)
	now := g.now()
	remaining := g.start.Add(g.total).Sub(now)
	var wsum float64
	for q := p; q < numPhases; q++ {
		wsum += weights[q]
	}
	allot := time.Duration(float64(remaining) * (weights[p] / wsum))
	g.mu.Lock()
	defer g.mu.Unlock()
	g.phaseAt[p] = now
	g.deadline[p] = now.Add(allot)
	g.started[p] = true
}

// Deadline returns the phase's soft deadline, or the zero time when the
// governor is nil or the phase has not started.
func (g *Governor) Deadline(p Phase) time.Time {
	if g == nil {
		return time.Time{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.deadline[p]
}

// Admit reports which ladder rung the next work unit of the phase
// should run at, given that `done` of `total` units have completed.
// Shed when the phase deadline has already passed; Degrade when the
// linear projection from measured progress overruns the deadline; Full
// otherwise (including before any unit has finished — the first unit is
// the measurement). Each answer bumps its governor_admit_* counter. Safe
// to call from any number of workers.
func (g *Governor) Admit(p Phase, done, total int) Level {
	if g == nil {
		return Full
	}
	g.mu.Lock()
	started, phaseAt, deadline := g.started[p], g.phaseAt[p], g.deadline[p]
	g.mu.Unlock()
	if !started {
		return Full
	}
	now := g.now()
	level := Full
	switch {
	case now.After(deadline):
		level = Shed
	case done > 0 && total > done:
		elapsed := now.Sub(phaseAt)
		projected := phaseAt.Add(time.Duration(float64(elapsed) * float64(total) / float64(done)))
		if projected.After(deadline) {
			level = Degrade
		}
	}
	switch level {
	case Full:
		g.admitFull.Inc()
	case Degrade:
		g.admitDegrade.Inc()
	case Shed:
		g.admitShed.Inc()
	}
	return level
}
