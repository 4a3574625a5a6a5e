package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/obs"
	"comparenb/internal/testutil"
)

func obsTestConfig() Config {
	cfg := NewConfig()
	cfg.Perms = 100
	cfg.Seed = 11
	cfg.EpsT = 5
	cfg.EpsD = 1.5
	return cfg
}

// TestObsByteIdentity is the tentpole's hard constraint: attaching a
// registry (with tracing armed) must leave every serialised artifact
// byte-identical to the unobserved run — observability records, never
// influences.
func TestObsByteIdentity(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Threads = 4
	ipynbOff, mdOff, htmlOff, repOff := renderAll(t, cfg)

	reg := obs.New()
	reg.EnableTracing(0)
	cfg.Obs = reg
	ipynbOn, mdOn, htmlOn, repOn := renderAll(t, cfg)

	check := func(name string, off, on []byte) {
		t.Helper()
		if len(off) == 0 {
			t.Fatalf("%s: run produced no output", name)
		}
		if !bytes.Equal(off, on) {
			t.Errorf("%s differs with observability enabled (%d vs %d bytes)", name, len(off), len(on))
		}
	}
	check("ipynb", ipynbOff, ipynbOn)
	check("markdown", mdOff, mdOn)
	check("html", htmlOff, htmlOn)
	check("report", repOff, repOn)
	if reg.SpanCount() == 0 {
		t.Error("observed run recorded no spans")
	}
}

// TestObsCountersThreadInvariant pins the deterministic half of the
// registry: the full counter/gauge snapshot is identical at every worker
// width, even though the increments happened on different goroutines in
// different orders.
func TestObsCountersThreadInvariant(t *testing.T) {
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]map[string]int64, 0, 3)
	widths := []int{1, 2, 8}
	for _, threads := range widths {
		cfg := obsTestConfig()
		cfg.Threads = threads
		reg := obs.New()
		cfg.Obs = reg
		if _, err := Generate(ds.Rel, cfg); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		states = append(states, reg.DeterministicState())
	}
	base := states[0]
	if base["counter/stats_perms_evaluated"] == 0 || base["counter/engine_cache_misses"] == 0 {
		t.Fatalf("expected hot counters missing from state: %v", base)
	}
	for i, state := range states[1:] {
		if len(state) != len(base) {
			t.Errorf("threads=%d: %d metrics, threads=1 has %d", widths[i+1], len(state), len(base))
		}
		for name, want := range base {
			if got := state[name]; got != want {
				t.Errorf("threads=%d: %s = %d, want %d (threads=1)", widths[i+1], name, got, want)
			}
		}
	}
}

// TestObsTraceCoversPipeline generates with the exact solver and tracing
// on, then validates the exported artifacts end to end: well-formed
// nesting and monotone timestamps, and spans covering all three phases
// plus the TAP search.
func TestObsTraceCoversPipeline(t *testing.T) {
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsTestConfig()
	cfg.Threads = 4
	cfg.Solver = SolverExact
	reg := obs.New()
	reg.EnableTracing(0)
	cfg.Obs = reg
	if _, err := Generate(ds.Rel, cfg); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := reg.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(trace.Bytes()); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	for _, span := range []string{
		`"run"`, `"phase/fd"`, `"phase/stats"`, `"phase/hypo"`, `"phase/tap"`,
		`"stats/pair"`, `"tap/bnb"`, `"engine/cube/build"`, `"hypo/eval"`,
	} {
		if !strings.Contains(trace.String(), span) {
			t.Errorf("trace missing span %s", span)
		}
	}

	var metrics bytes.Buffer
	if err := reg.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(metrics.Bytes()); err != nil {
		t.Fatalf("metrics do not validate: %v", err)
	}
	for _, name := range []string{
		"comparenb_tap_nodes_expanded_total",
		"comparenb_stats_perm_blocks_drawn_total",
		"comparenb_engine_cache_hits_total",
		"comparenb_phase_stats_seconds_count",
	} {
		if !strings.Contains(metrics.String(), name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestObsPhaseTimingsMatchHistograms: each phase is measured once, by one
// clock reading at each boundary of its phase/* span, so one run's phase
// spans, phase histograms and run_total hold exactly the durations its
// Timings report.
func TestObsPhaseTimingsMatchHistograms(t *testing.T) {
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsTestConfig()
	reg := obs.New()
	reg.EnableTracing(0)
	cfg.Obs = reg
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := reg.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // µs, to the nanosecond
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	spans := map[string][]time.Duration{}
	for _, ev := range tf.TraceEvents {
		spans[ev.Name] = append(spans[ev.Name], time.Duration(math.Round(ev.Dur*1e3)))
	}
	for _, tc := range []struct {
		hist, span string
		want       time.Duration
	}{
		{"phase_fd", "phase/fd", res.Timings.FD},
		{"phase_stats", "phase/stats", res.Timings.StatTests},
		{"phase_hypo", "phase/hypo", res.Timings.HypoEval},
		{"phase_tap", "phase/tap", res.Timings.TAP},
		{"run_total", "", res.Timings.Total},
	} {
		tm := reg.Timing(tc.hist)
		if tm.Count() != 1 || tm.Sum() != tc.want {
			t.Errorf("%s: %d observations summing to %v; Timings say %v", tc.hist, tm.Count(), tm.Sum(), tc.want)
		}
		if got := spans[tc.span]; tc.span != "" && (len(got) != 1 || got[0] != tc.want) {
			t.Errorf("%s spans last %v; Timings say %v", tc.span, got, tc.want)
		}
	}
}

// TestObsInterruptedRunFlushes pins the satellite-2 contract at the
// library layer: a cancelled run marks the registry interrupted, and the
// artifacts flushed afterwards are valid and carry the marker.
func TestObsInterruptedRunFlushes(t *testing.T) {
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obsTestConfig()
	reg := obs.New()
	reg.EnableTracing(0)
	cfg.Obs = reg
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateContext(ctx, ds.Rel, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reg.Interrupted() {
		t.Fatal("cancelled run did not mark the registry interrupted")
	}
	var trace, metrics bytes.Buffer
	if err := reg.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(trace.Bytes()); err != nil {
		t.Errorf("partial trace does not validate: %v", err)
	}
	if err := reg.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateMetrics(metrics.Bytes()); err != nil {
		t.Errorf("partial metrics do not validate: %v", err)
	}
	if !strings.Contains(metrics.String(), "# interrupted") {
		t.Error("partial metrics missing the interrupted marker")
	}
}

// TestObsNoGoroutineLeak: the observability sink spawns nothing of its
// own, so an observed multi-threaded run must settle back to the
// pre-run goroutine count.
func TestObsNoGoroutineLeak(t *testing.T) {
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	cfg := obsTestConfig()
	cfg.Threads = 8
	reg := obs.New()
	reg.EnableTracing(0)
	cfg.Obs = reg
	if _, err := Generate(ds.Rel, cfg); err != nil {
		t.Fatal(err)
	}
	testutil.WaitGoroutinesSettle(t, before)
}

// TestObsHistogramsThreadInvariantBytes extends the byte-identity gate
// to the SLO histograms: at every worker width the phase timings land in
// populated log2 buckets (with a trace identity attached), yet every
// serialised artifact stays byte-identical to the width-1 run. Wall
// clocks vary run to run, so only bucket occupancy — never bucket
// values — is asserted.
func TestObsHistogramsThreadInvariantBytes(t *testing.T) {
	var baseIpynb, baseMD, baseHTML, baseRep []byte
	for _, threads := range []int{1, 2, 8} {
		cfg := obsTestConfig()
		cfg.Threads = threads
		reg := obs.New()
		reg.EnableTracing(0)
		reg.SetTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
		cfg.Obs = reg
		ipynb, md, html, rep := renderAll(t, cfg)

		for _, name := range []string{"phase_stats", "run_total"} {
			tm := reg.Timing(name)
			if tm.Count() == 0 {
				t.Errorf("threads=%d: timing %s never observed", threads, name)
				continue
			}
			var occupied int64
			for _, c := range tm.Buckets() {
				occupied += c
			}
			if occupied != tm.Count() {
				t.Errorf("threads=%d: %s buckets hold %d observations, count says %d",
					threads, name, occupied, tm.Count())
			}
		}

		if threads == 1 {
			baseIpynb, baseMD, baseHTML, baseRep = ipynb, md, html, rep
			continue
		}
		for _, pair := range []struct {
			name      string
			base, got []byte
		}{
			{"ipynb", baseIpynb, ipynb},
			{"markdown", baseMD, md},
			{"html", baseHTML, html},
			{"report", baseRep, rep},
		} {
			if !bytes.Equal(pair.base, pair.got) {
				t.Errorf("threads=%d: %s differs from width-1 run with histograms armed", threads, pair.name)
			}
		}
	}
}
