package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func flightEntry(id string, e2eUS float64) FlightEntry {
	return FlightEntry{
		ID:          id,
		TraceID:     "0af7651916cd43dd8448eb211c80319c",
		Labels:      map[string]string{"tenant": "t0", "state": "done"},
		QueueWaitUS: e2eUS / 10,
		RunUS:       e2eUS / 2,
		E2EUS:       e2eUS,
		ShiftUS:     e2eUS / 8,
		Tracks:      []string{"run"},
		Spans: []SpanSnapshot{
			{Name: "run", Track: 0, StartUS: 0, DurUS: e2eUS / 2},
			{Name: "phase/stats", Track: 0, StartUS: 1, DurUS: e2eUS / 4},
		},
		SpanTotal:   2,
		SpanDropped: 0,
	}
}

// TestFlightRecorderRetention: the recency ring keeps the newest N in
// newest-first order while the slowest set retains tail outliers that
// scrolled out of recency.
func TestFlightRecorderRetention(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	// One huge outlier first, then a stream of fast jobs that evict it
	// from recency.
	f.Add(flightEntry("j000001", 9e6))
	for i := 2; i <= 9; i++ {
		f.Add(flightEntry(fmt.Sprintf("j%06d", i), float64(i)*100))
	}
	snap := f.Snapshot()
	if snap.Total != 9 {
		t.Errorf("total = %d, want 9", snap.Total)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("recent len = %d, want 4", len(snap.Recent))
	}
	for i, want := range []string{"j000009", "j000008", "j000007", "j000006"} {
		if snap.Recent[i].ID != want {
			t.Errorf("recent[%d] = %s, want %s (newest first)", i, snap.Recent[i].ID, want)
		}
	}
	if len(snap.Slowest) != 2 || snap.Slowest[0].ID != "j000001" {
		t.Fatalf("slowest = %+v, want the 9s outlier first", snap.Slowest)
	}
	if snap.Slowest[1].ID != "j000009" {
		t.Errorf("slowest[1] = %s, want j000009", snap.Slowest[1].ID)
	}

	// Get finds entries in recency and in slowest-only retention.
	if _, ok := f.Get("j000008"); !ok {
		t.Error("Get missed a recent entry")
	}
	if e, ok := f.Get("j000001"); !ok || e.E2EUS != 9e6 {
		t.Error("Get missed the slowest-retained outlier")
	}
	if _, ok := f.Get("j000002"); ok {
		t.Error("Get found an evicted entry")
	}
}

// TestFlightSnapshotValidates: the JSON a server would serve at
// /debug/flight round-trips through ValidateFlight.
func TestFlightSnapshotValidates(t *testing.T) {
	f := NewFlightRecorder(0, 0)
	f.Add(flightEntry("j000001", 1500))
	f.Add(flightEntry("j000002", 800))
	data, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlight(data); err != nil {
		t.Fatalf("snapshot does not validate: %v", err)
	}
	// An empty recorder is structurally valid too (server just booted).
	empty, err := json.Marshal(NewFlightRecorder(0, 0).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlight(empty); err != nil {
		t.Errorf("empty snapshot does not validate: %v", err)
	}
}

func TestValidateFlightRejects(t *testing.T) {
	good := flightEntry("j000001", 1500)
	wrap := func(e FlightEntry) []byte {
		data, err := json.Marshal(FlightSnapshot{Total: 1, Recent: []FlightEntry{e}, Slowest: []FlightEntry{}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	noID := good
	noID.ID = ""
	negDur := good
	negDur.RunUS = -1
	qwOverE2E := good
	qwOverE2E.QueueWaitUS = good.E2EUS + 10
	badTrack := good
	badTrack.Spans = []SpanSnapshot{{Name: "x", Track: 5, StartUS: 0, DurUS: 1}}
	badTrack.SpanTotal = 1
	overTotal := good
	overTotal.SpanTotal = 1 // claims 1 but retains 2
	cases := map[string][]byte{
		"not json":        []byte("{"),
		"missing keys":    []byte("{}"),
		"empty id":        wrap(noID),
		"negative dur":    wrap(negDur),
		"queue wait > e2": wrap(qwOverE2E),
		"unknown track":   wrap(badTrack),
		"spans > total":   wrap(overTotal),
	}
	for name, data := range cases {
		if err := ValidateFlight(data); err == nil {
			t.Errorf("%s: ValidateFlight accepted invalid input", name)
		}
	}
	if err := ValidateFlight(wrap(good)); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestFlightEntryWriteTrace: the per-job Chrome trace rendering is
// obscheck-valid and carries the annotation track plus the trace id.
func TestFlightEntryWriteTrace(t *testing.T) {
	e := flightEntry("j000001", 1500)
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("flight trace does not validate: %v", err)
	}
	s := buf.String()
	for _, want := range []string{`"job/e2e"`, `"job/queue-wait"`, `"job/run"`, `"phase/stats"`, e.TraceID} {
		if !strings.Contains(s, want) {
			t.Errorf("flight trace missing %s", want)
		}
	}
}

// TestFlightEntryWriteTraceClamped: adversarial annotation values (run
// longer than e2e, negative shift) are clamped into a valid nesting
// rather than producing an invalid trace.
func TestFlightEntryWriteTraceClamped(t *testing.T) {
	e := FlightEntry{
		ID:          "j000001",
		QueueWaitUS: 5000, // exceeds e2e
		RunUS:       9000, // exceeds e2e
		E2EUS:       1000,
		ShiftUS:     -50,
		Tracks:      []string{"run"},
		Spans:       []SpanSnapshot{{Name: "run", Track: 0, StartUS: 0, DurUS: 900}},
		SpanTotal:   1,
	}
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("clamped flight trace does not validate: %v", err)
	}
}

// TestSnapshotSpans lifts spans out of a live registry and checks the
// truncation cap records honestly.
func TestSnapshotSpans(t *testing.T) {
	r := New()
	r.EnableTracing(maxFlightSpans + 16)
	ctx := NewContext(context.Background(), r)
	for i := 0; i < maxFlightSpans+6; i++ {
		sp := StartSpan(ctx, "s")
		sp.End()
	}
	spans, tracks := r.SnapshotSpans()
	if len(spans) != maxFlightSpans {
		t.Errorf("snapshot len = %d, want truncation to %d", len(spans), maxFlightSpans)
	}
	if len(tracks) != 1 || tracks[0] != "run" {
		t.Errorf("tracks = %v, want [run]", tracks)
	}
	if spans[0].Name != "s" || spans[0].DurUS < 0 {
		t.Errorf("bad span snapshot %+v", spans[0])
	}
	// Nil / untraced registries answer nils.
	var nilReg *Registry
	if s, tr := nilReg.SnapshotSpans(); s != nil || tr != nil {
		t.Error("nil registry snapshot not nil")
	}
	if s, _ := New().SnapshotSpans(); s != nil {
		t.Error("untraced registry snapshot not nil")
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
	if !nilReg.StartTime().IsZero() {
		t.Error("nil registry StartTime != zero")
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
