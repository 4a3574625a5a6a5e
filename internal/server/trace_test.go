package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"comparenb/internal/obs"
	"comparenb/internal/table"
)

func TestParseTraceparent(t *testing.T) {
	const tid = "0af7651916cd43dd8448eb211c80319c"
	cases := []struct {
		name   string
		header string
		want   string
		ok     bool
	}{
		{"valid v00", "00-" + tid + "-b7ad6b7169203331-01", tid, true},
		{"valid unsampled", "00-" + tid + "-b7ad6b7169203331-00", tid, true},
		{"future version extra fields", "cc-" + tid + "-b7ad6b7169203331-01-extra", tid, true},
		{"future version no extras", "cc-" + tid + "-b7ad6b7169203331-01", tid, true},
		{"empty", "", "", false},
		{"too short", "00-abc-def-01", "", false},
		{"uppercase trace id", "00-" + strings.ToUpper(tid) + "-b7ad6b7169203331-01", "", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", "", false},
		{"all-zero parent id", "00-" + tid + "-0000000000000000-01", "", false},
		{"version ff", "ff-" + tid + "-b7ad6b7169203331-01", "", false},
		{"non-hex version", "zz-" + tid + "-b7ad6b7169203331-01", "", false},
		{"v00 with trailing junk", "00-" + tid + "-b7ad6b7169203331-01-extra", "", false},
		{"future version missing separator", "cc-" + tid + "-b7ad6b7169203331-01xtra", "", false},
		{"wrong separators", "00_" + tid + "_b7ad6b7169203331_01", "", false},
		{"non-hex flags", "00-" + tid + "-b7ad6b7169203331-zz", "", false},
	}
	for _, tc := range cases {
		got, ok := parseTraceparent(tc.header)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: parseTraceparent(%q) = (%q, %v), want (%q, %v)",
				tc.name, tc.header, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := newTraceID(), newTraceID()
	if len(a) != 32 || !isHex(a) || allZero(a) {
		t.Fatalf("newTraceID() = %q, want 32 lowercase hex digits", a)
	}
	if a == b {
		t.Errorf("two trace ids collided: %q", a)
	}
	if hdr := responseTraceparent(a); len(hdr) != 55 {
		t.Errorf("responseTraceparent length %d, want 55: %q", len(hdr), hdr)
	} else if got, ok := parseTraceparent(hdr); !ok || got != a {
		t.Errorf("responseTraceparent does not round-trip: %q -> (%q, %v)", hdr, got, ok)
	}
}

// postJSONTraced is postJSON with a client traceparent header attached,
// returning the response traceparent alongside status and body.
func postJSONTraced(t *testing.T, url, traceparent string, v any) (int, []byte, string) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("traceparent")
}

// TestTracePropagationEndToEnd is the acceptance path: one client
// traceparent must surface, with the same trace id, in the 202 header
// and body, the status view, the SSE stream, the job's trace artifact
// and the per-tenant metrics, while the notebook artifacts stay
// byte-identical across trace ids.
func TestTracePropagationEndToEnd(t *testing.T) {
	csv := writeTinyCSV(t, 7, 60)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	header := "00-" + tid + "-00f067aa0ba902b7-01"
	req := jobRequest{Relation: "tiny", Queries: 3, Perms: 60, Seed: 7, Threads: 2, Tenant: "acme"}

	status, body, respTP := postJSONTraced(t, base+"/v1/notebooks", header, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	if got, ok := parseTraceparent(respTP); !ok || got != tid {
		t.Errorf("202 traceparent header = %q, want trace id %s echoed", respTP, tid)
	}
	var admit admitResponse
	if err := json.Unmarshal(body, &admit); err != nil {
		t.Fatal(err)
	}
	if admit.TraceID != tid {
		t.Errorf("202 body trace_id = %q, want %q", admit.TraceID, tid)
	}

	if v := waitJob(t, base, admit.JobID); v.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	} else if v.TraceID != tid {
		t.Errorf("status trace_id = %q, want %q", v.TraceID, tid)
	}

	// SSE replay carries the trace event.
	events := string(mustGet(t, base+"/v1/jobs/"+admit.JobID+"/events"))
	if !strings.Contains(events, "event: trace") ||
		!strings.Contains(events, `{"trace_id":"`+tid+`"}`) {
		t.Errorf("SSE stream missing trace event for %s:\n%s", tid, events)
	}

	// The job's trace artifact: valid per obscheck rules, stamped with
	// the id.
	jt := mustGet(t, base+"/v1/jobs/"+admit.JobID+"/result?format=trace")
	if err := obs.ValidateTrace(jt); err != nil {
		t.Errorf("job trace invalid: %v", err)
	}
	if !bytes.Contains(jt, []byte(`"trace_id":"`+tid+`"`)) {
		t.Errorf("job trace missing trace_id %s", tid)
	}

	// Per-tenant SLO histogram appears on /metrics with cumulative
	// buckets and a count matching the one completed job.
	metrics := string(mustGet(t, base+"/metrics"))
	for _, want := range []string{
		`comparenb_server_job_e2e_seconds_bucket{tenant="acme",le="+Inf"} 1`,
		`comparenb_server_job_e2e_seconds_count{tenant="acme"} 1`,
		`comparenb_server_job_e2e_seconds_count 1`,
		`comparenb_server_job_queue_wait_seconds_count{tenant="acme"} 1`,
		`comparenb_server_job_wall_seconds_count{tenant="acme"} 1`,
		"comparenb_obs_spans_total ",
		"comparenb_obs_spans_dropped_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Tracing never perturbs artifact bytes: a second job with a
	// different trace id produces identical notebook output.
	const tid2 = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"
	status2, body2, _ := postJSONTraced(t, base+"/v1/notebooks",
		"00-"+tid2+"-00f067aa0ba902b7-01", req)
	if status2 != http.StatusAccepted {
		t.Fatalf("second submit: status %d: %s", status2, body2)
	}
	var admit2 admitResponse
	if err := json.Unmarshal(body2, &admit2); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, base, admit2.JobID); v.State != stateDone {
		t.Fatalf("second job finished %s (%s), want done", v.State, v.Error)
	}
	nb1 := mustGet(t, base+"/v1/jobs/"+admit.JobID+"/result?format=ipynb")
	nb2 := mustGet(t, base+"/v1/jobs/"+admit2.JobID+"/result?format=ipynb")
	if !bytes.Equal(nb1, nb2) {
		t.Error("notebook bytes differ between trace ids — trace leaked into artifacts")
	}
}

// TestTraceGeneratedWhenAbsent: requests without (or with malformed)
// traceparent get a fresh server-generated identity.
func TestTraceGeneratedWhenAbsent(t *testing.T) {
	csv := writeTinyCSV(t, 7, 60)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 2, Perms: 40, Seed: 7, Threads: 1})
	v := waitJob(t, base, id)
	if len(v.TraceID) != 32 || !isHex(v.TraceID) || allZero(v.TraceID) {
		t.Errorf("generated trace id %q not a valid W3C trace id", v.TraceID)
	}

	// Malformed headers are replaced, not propagated.
	status, body, respTP := postJSONTraced(t, base+"/v1/notebooks",
		"00-ZZZZ-bad-01", jobRequest{Relation: "tiny", Queries: 2, Perms: 40, Seed: 7, Threads: 1})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var admit admitResponse
	if err := json.Unmarshal(body, &admit); err != nil {
		t.Fatal(err)
	}
	if len(admit.TraceID) != 32 || !isHex(admit.TraceID) {
		t.Errorf("malformed header produced trace id %q", admit.TraceID)
	}
	if got, ok := parseTraceparent(respTP); !ok || got != admit.TraceID {
		t.Errorf("response traceparent %q does not carry the generated id %q", respTP, admit.TraceID)
	}
	waitJob(t, base, admit.JobID)
}

// TestJobTraceNotFound: a job's trace is its result artifact and exists
// nowhere else. An unknown job's is 404, and a done job has no
// /v1/jobs/{id}/trace and no /debug/flight copy.
func TestJobTraceNotFound(t *testing.T) {
	csv := writeTinyCSV(t, 7, 60)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)
	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 2, Perms: 40, Seed: 7, Threads: 1})
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	}
	for _, path := range []string{"/v1/jobs/j999999/result?format=trace", "/v1/jobs/" + id + "/trace", "/debug/flight"} {
		if status, _ := httpGet(t, base+path); status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, status)
		}
	}
}

// exploreCSV renders a relation of the serving benchmark's
// shared-explore shape: 5,000 rows over attributes of 24/8/6/5/4/3
// values, skewed toward low values, the last a function of the first;
// two measures whose means move with every value, and doubled noise on
// every fifth value.
func exploreCSV(t *testing.T, seed int64) *bytes.Buffer {
	t.Helper()
	domains := []int{24, 8, 6, 5, 4, 3}
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("explore", []string{"c0", "c1", "c2", "c3", "c4", "c5"}, []string{"m0", "m1"})
	cats := make([]string, len(domains))
	codes := make([]int, len(domains))
	meas := make([]float64, 2)
	for r := 0; r < 5000; r++ {
		scale := 1.0
		for a, d := range domains {
			v := codes[0] % d
			if a < len(domains)-1 {
				v = int(float64(d) * math.Pow(rng.Float64(), 2))
			}
			codes[a], cats[a] = v, fmt.Sprintf("v%02d", v)
			if v%5 == 4 {
				scale = 2
			}
		}
		for m := range meas {
			meas[m] = 100 + rng.NormFloat64()*20*scale
			for a, v := range codes {
				meas[m] += float64((a*31+v*17+m*7)%7-3) * 3
			}
		}
		b.AddRow(cats, meas)
	}
	var csv bytes.Buffer
	if err := b.Build().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return &csv
}

// TestJobTraceComplete runs a job that records more than 2,048 spans (the
// shared-explore shape with one thread) and checks that its trace
// artifact holds all of them: valid, stamped with the job's trace id,
// with the run span and every phase.
func TestJobTraceComplete(t *testing.T) {
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	if status, body, err := upload(base, "wide", exploreCSV(t, 7)); err != nil || status != http.StatusCreated {
		t.Fatalf("upload: status %d, err %v: %s", status, err, body)
	}
	id := submitJob(t, base, jobRequest{Relation: "wide", Queries: 6, Perms: 30, Seed: 7, Threads: 1, Solver: "heuristic"})
	v := waitJob(t, base, id)
	if v.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	}

	data := mustGet(t, base+"/v1/jobs/"+id+"/result?format=trace")
	if err := obs.ValidateTrace(data); err != nil {
		t.Fatalf("job trace invalid: %v", err)
	}
	var tf struct {
		OtherData struct {
			TraceID string `json:"trace_id"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.OtherData.TraceID != v.TraceID {
		t.Errorf("trace id %q, want the job's %q", tf.OtherData.TraceID, v.TraceID)
	}
	spans := map[string]int{}
	complete := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			complete++
			spans[ev.Name]++
		}
	}
	if complete <= 2048 {
		t.Errorf("trace holds %d complete events, want more than 2,048", complete)
	}
	for _, name := range []string{"run", "phase/fd", "phase/stats", "phase/hypo", "phase/tap"} {
		if spans[name] != 1 {
			t.Errorf("trace holds %d %q spans, want 1", spans[name], name)
		}
	}
}
