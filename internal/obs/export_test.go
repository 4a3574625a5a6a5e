package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildRegistry records a realistic little run: nested spans on the main
// track, concurrent workers on forked tracks, counters, a gauge and a
// timing.
func buildRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New()
	r.EnableTracing(0)
	ctx := NewContext(context.Background(), r)
	run := StartSpan(ctx, "run")
	phase := StartSpan(ctx, "phase/stats")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := ForkTrack(ctx, "worker")
			for j := 0; j < 3; j++ {
				sp := StartSpan(wctx, "stats/pair")
				inner := StartSpan(wctx, "stats/pair/permblock")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	phase.End()
	run.End()
	r.Counter("stats_perms_evaluated").Add(1200)
	r.Gauge("stats_perms_effective_min").Set(0)
	r.Timing("phase_stats").Observe(3 * time.Millisecond)
	return r
}

func TestWriteTraceRoundTrip(t *testing.T) {
	r := buildRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	s := buf.String()
	for _, want := range []string{`"run"`, `"phase/stats"`, `"stats/pair/permblock"`, `"worker#`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestWriteTraceEmptyRegistryValidates(t *testing.T) {
	// An interrupted run can flush before anything was recorded; the
	// artifact must still be valid JSON.
	var buf bytes.Buffer
	if err := New().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("empty trace does not validate: %v", err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `{"traceEvents":[`,
		"bad phase":    `{"traceEvents":[{"name":"a","ph":"B","tid":0,"ts":1}]}`,
		"empty name":   `{"traceEvents":[{"name":"","ph":"X","tid":0,"ts":1,"dur":1}]}`,
		"negative ts":  `{"traceEvents":[{"name":"a","ph":"X","tid":0,"ts":-5,"dur":1}]}`,
		"non-monotone": `{"traceEvents":[{"name":"a","ph":"X","tid":0,"ts":10,"dur":1},{"name":"b","ph":"X","tid":0,"ts":2,"dur":1}]}`,
		"overlap":      `{"traceEvents":[{"name":"a","ph":"X","tid":0,"ts":0,"dur":10},{"name":"b","ph":"X","tid":0,"ts":5,"dur":10}]}`,
	}
	for name, data := range cases {
		if err := ValidateTrace([]byte(data)); err == nil {
			t.Errorf("%s: ValidateTrace accepted invalid input", name)
		}
	}
	// Disjoint spans and properly nested spans on one track are fine.
	ok := `{"traceEvents":[{"name":"a","ph":"X","tid":0,"ts":0,"dur":10},{"name":"b","ph":"X","tid":0,"ts":2,"dur":3},{"name":"c","ph":"X","tid":0,"ts":20,"dur":1}]}`
	if err := ValidateTrace([]byte(ok)); err != nil {
		t.Errorf("nested+disjoint rejected: %v", err)
	}
}

func TestWriteMetricsRoundTrip(t *testing.T) {
	r := buildRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("exported metrics do not validate: %v", err)
	}
	s := buf.String()
	for _, want := range []string{
		"comparenb_stats_perms_evaluated_total 1200",
		"comparenb_stats_perms_effective_min 0",
		"comparenb_phase_stats_seconds_count 1",
		`comparenb_phase_stats_seconds_bucket{le="+Inf"} 1`,
		"comparenb_obs_spans_total ",
		"comparenb_obs_spans_dropped_total 0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(s, "# interrupted") {
		t.Error("uninterrupted run carries the interrupted marker")
	}
	// Deterministic section must precede the non-deterministic one.
	det := strings.Index(s, "deterministic counters")
	nondet := strings.Index(s, "non-deterministic timings")
	if det < 0 || nondet < 0 || det > nondet {
		t.Error("metrics sections missing or out of order")
	}
}

func TestWriteMetricsInterruptedMarker(t *testing.T) {
	r := New()
	r.Counter("x").Inc()
	r.MarkInterrupted()
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 3)
	if len(lines) < 2 || lines[1] != "# interrupted" {
		t.Errorf("second line = %q, want \"# interrupted\"", lines[1])
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Errorf("interrupted exposition does not validate: %v", err)
	}
}

func TestValidateMetricsRejects(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"comments only": "# nothing\n",
		"no value":      "lonely_name\n",
		"bad name":      "9name 3\n",
		"bad value":     "name abc\n",
	}
	for name, data := range cases {
		if err := ValidateMetrics([]byte(data)); err == nil {
			t.Errorf("%s: ValidateMetrics accepted invalid input", name)
		}
	}
	if err := ValidateMetrics([]byte("a_total 3\nb{le=\"0.1\"} 4.5\n")); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

func TestWriteSummary(t *testing.T) {
	r := buildRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"phase_stats", "stats_perms_evaluated", "spans recorded"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

// TestRegistryTraceID: the bound trace id surfaces in both exports and
// stays out of DeterministicState.
func TestRegistryTraceID(t *testing.T) {
	r := New()
	r.EnableTracing(8)
	r.SetTraceID("0af7651916cd43dd8448eb211c80319c")
	r.Counter("x").Inc()
	if r.TraceID() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("TraceID = %q", r.TraceID())
	}
	var trace, metrics bytes.Buffer
	if err := r.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(trace.Bytes()); err != nil {
		t.Fatalf("trace with id does not validate: %v", err)
	}
	if !strings.Contains(trace.String(), `"otherData":{"trace_id":"0af7651916cd43dd8448eb211c80319c"}`) {
		t.Error("trace export missing otherData.trace_id")
	}
	if err := r.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(metrics.Bytes()); err != nil {
		t.Fatalf("metrics with id do not validate: %v", err)
	}
	if !strings.Contains(metrics.String(), "# trace_id 0af7651916cd43dd8448eb211c80319c") {
		t.Error("metrics export missing # trace_id comment")
	}
	if _, ok := r.DeterministicState()["trace"]; ok {
		t.Error("trace id leaked into DeterministicState")
	}
	// Nil-safety.
	var nilReg *Registry
	nilReg.SetTraceID("x")
	if nilReg.TraceID() != "" {
		t.Error("nil registry TraceID != empty")
	}
}

// TestWriteMetricsLabeledTiming: a timing registered with an inline
// label set exports with the labels merged before le, one TYPE header
// per family, and sparse bucket lines.
func TestWriteMetricsLabeledTiming(t *testing.T) {
	r := New()
	r.Timing(`server_job_e2e{tenant="a"}`).Observe(3_000_000)
	r.Timing(`server_job_e2e{tenant="b"}`).Observe(5_000_000)
	r.Timing("server_job_e2e").Observe(1_000_000)
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("labeled metrics do not validate: %v", err)
	}
	s := buf.String()
	for _, want := range []string{
		`comparenb_server_job_e2e_seconds_bucket{tenant="a",le=`,
		`comparenb_server_job_e2e_seconds_bucket{tenant="b",le="+Inf"} 1`,
		`comparenb_server_job_e2e_seconds_sum{tenant="a"} `,
		`comparenb_server_job_e2e_seconds_count{tenant="b"} 1`,
		`comparenb_server_job_e2e_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("labeled metrics missing %q", want)
		}
	}
	if n := strings.Count(s, "# TYPE comparenb_server_job_e2e_seconds histogram"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want once per family", n)
	}
	// Sparse: one observation → exactly two bucket lines (its own + Inf)
	// per instance, not 64.
	if n := strings.Count(s, `comparenb_server_job_e2e_seconds_bucket{tenant="a",`); n != 2 {
		t.Errorf("tenant=a bucket lines = %d, want 2 (sparse + Inf)", n)
	}
}
