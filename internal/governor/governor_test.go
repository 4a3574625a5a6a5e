package governor

import (
	"sync/atomic"
	"testing"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/obs"
)

// fakeClock drives a governor with a hand-advanced clock so every
// pressure decision is a pure function of the scripted times.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestGovernor(total time.Duration) (*Governor, *fakeClock) {
	start := time.Unix(1_000_000, 0)
	clk := &fakeClock{t: start}
	g := New(total, start)
	g.now = clk.now
	return g, clk
}

func TestNilGovernorIsUngoverned(t *testing.T) {
	var g *Governor
	g.Instrument(obs.New()) // must not panic
	g.StartPhase(Stats)
	if lvl := g.Admit(Stats, 5, 10); lvl != Full {
		t.Errorf("nil governor Admit = %v, want Full", lvl)
	}
	if !g.Deadline(TAP).IsZero() {
		t.Errorf("nil governor Deadline = %v, want zero", g.Deadline(TAP))
	}
	if New(0, time.Now()) != nil {
		t.Error("New(0) should return the nil (ungoverned) governor")
	}
}

func TestBudgetSplitAndRollForward(t *testing.T) {
	g, clk := newTestGovernor(10 * time.Second)

	g.StartPhase(Stats)
	statsAllot := g.Deadline(Stats).Sub(clk.t)
	if want := 6 * time.Second; statsAllot != want {
		t.Errorf("stats allotment = %v, want %v (0.6 share of 10s)", statsAllot, want)
	}

	// Stats finishes after only 1s: the 5s of slack must roll forward.
	clk.advance(1 * time.Second)
	g.StartPhase(Hypo)
	hypoAllot := g.Deadline(Hypo).Sub(clk.t)
	// remaining = 9s, hypo share = 0.25/(0.25+0.15) = 0.625 -> 5.625s.
	if want := 5625 * time.Millisecond; hypoAllot != want {
		t.Errorf("hypo allotment = %v, want %v", hypoAllot, want)
	}

	clk.advance(1 * time.Second)
	g.StartPhase(TAP)
	// The last phase always gets everything left, i.e. its deadline is
	// exactly the run deadline start+total — the pre-governor semantics.
	if got, want := g.Deadline(TAP), g.start.Add(g.total); !got.Equal(want) {
		t.Errorf("TAP deadline = %v, want run deadline %v", got, want)
	}
}

func TestAdmitLevels(t *testing.T) {
	g, clk := newTestGovernor(10 * time.Second)
	reg := obs.New()
	g.Instrument(reg)
	g.StartPhase(Stats) // deadline = +6s

	if lvl := g.Admit(Stats, 0, 100); lvl != Full {
		t.Errorf("no measurement yet: Admit = %v, want Full", lvl)
	}

	// 10 of 100 units took 200ms: projected 2s < 6s -> Full.
	clk.advance(200 * time.Millisecond)
	if lvl := g.Admit(Stats, 10, 100); lvl != Full {
		t.Errorf("on-track projection: Admit = %v, want Full", lvl)
	}

	// 20 of 100 units took 2s total: projected 10s > 6s -> Degrade.
	clk.advance(1800 * time.Millisecond)
	if lvl := g.Admit(Stats, 20, 100); lvl != Degrade {
		t.Errorf("overrun projection: Admit = %v, want Degrade", lvl)
	}

	// Past the deadline -> Shed, regardless of progress.
	clk.advance(5 * time.Second)
	if lvl := g.Admit(Stats, 99, 100); lvl != Shed {
		t.Errorf("past deadline: Admit = %v, want Shed", lvl)
	}
	// Every answer is counted once under its rung.
	for _, c := range []struct {
		name string
		want int64
	}{{"governor_admit_full", 2}, {"governor_admit_degrade", 1}, {"governor_admit_shed", 1}} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAdmitExhaustedBudgetShedsEveryPhase(t *testing.T) {
	g, clk := newTestGovernor(time.Nanosecond)
	clk.advance(time.Second)
	for _, p := range []Phase{Stats, Hypo, TAP} {
		g.StartPhase(p)
		if lvl := g.Admit(p, 0, 10); lvl != Shed {
			t.Errorf("phase %v with spent budget: Admit = %v, want Shed", p, lvl)
		}
	}
}

func TestStartPhaseFiresRebalanceSite(t *testing.T) {
	var fired atomic.Int64
	defer faultinject.Set(faultinject.GovernorRebalance,
		faultinject.Always(func() { fired.Add(1) }))()
	g, _ := newTestGovernor(time.Second)
	g.StartPhase(Stats)
	g.StartPhase(Hypo)
	if fired.Load() != 2 {
		t.Errorf("GovernorRebalance fired %d times, want 2", fired.Load())
	}
}
