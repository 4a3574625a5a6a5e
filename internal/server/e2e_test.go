package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/pipeline"
	"comparenb/internal/table"
)

// startTestServer boots a Server (workers + httptest front end) and
// returns a shutdown func that drains the workers and joins every
// goroutine before returning.
func startTestServer(t *testing.T, opts Options) (*Server, string, func()) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	base, shutdown := serveTestServer(t, s)
	return s, base, shutdown
}

// serveTestServer runs s and an HTTP front end for it until the returned
// shutdown is called.
func serveTestServer(t *testing.T, s *Server) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	hs := httptest.NewServer(s.Handler())
	shutdown := func() {
		hs.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server Run returned %v", err)
		}
	}
	return hs.URL, shutdown
}

// writeTinyCSV materialises a deterministic datagen dataset as a CSV
// file and returns its path.
func writeTinyCSV(t *testing.T, seed int64, rows int) string {
	t.Helper()
	ds, err := datagen.Tiny(seed, rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Rel.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// upload posts a CSV body to POST /v1/relations?name=name and returns
// the status and body. It reports errors instead of failing, so it is
// safe off the test goroutine.
func upload(base, name string, csv io.Reader) (int, []byte, error) {
	resp, err := http.Post(base+"/v1/relations?name="+name, "text/csv", csv)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// loadRelation uploads the CSV file at path to the server under name.
func loadRelation(t *testing.T, base, name, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	status, body, err := upload(base, name, f)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("loading relation: status %d, err %v: %s", status, err, body)
	}
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	status, body := httpGet(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, status, body)
	}
	return body
}

// submitJob posts a notebook job and returns its id.
func submitJob(t *testing.T, base string, req jobRequest) string {
	t.Helper()
	status, body := postJSON(t, base+"/v1/notebooks", req)
	if status != http.StatusAccepted {
		t.Fatalf("submitting job: status %d: %s", status, body)
	}
	var resp admitResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.JobID
}

// waitJob polls a job to a terminal state and returns its final status.
func waitJob(t *testing.T, base, id string) jobStatusView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v jobStatusView
		if err := json.Unmarshal(mustGet(t, base+"/v1/jobs/"+id), &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case stateDone, stateFailed, stateFailedPermanent, stateCancelled:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobStatusView{}
}

// runServerJob submits, waits for done, and fetches the three notebook
// artifacts plus the report.
func runServerJob(t *testing.T, base string, req jobRequest) (ipynb, md, report []byte) {
	t.Helper()
	id := submitJob(t, base, req)
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job %s finished %s (%s), want done", id, v.State, v.Error)
	}
	ipynb = mustGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
	md = mustGet(t, base+"/v1/jobs/"+id+"/result?format=markdown")
	report = mustGet(t, base+"/v1/jobs/"+id+"/result?format=report")
	return ipynb, md, report
}

// oneShot runs the batch pipeline with the exact Config the server would
// build for req — the reference the daemon's bytes must reproduce.
func oneShot(t *testing.T, csvPath string, req jobRequest) (ipynb, md, report []byte) {
	t.Helper()
	rel, _, err := table.FromCSVFile(csvPath, table.CSVOptions{Name: req.Relation})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Generate(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := pipeline.BuildNotebook(res)
	var nbBuf, mdBuf, repBuf bytes.Buffer
	if err := nb.WriteIPYNB(&nbBuf); err != nil {
		t.Fatal(err)
	}
	if err := nb.WriteMarkdown(&mdBuf); err != nil {
		t.Fatal(err)
	}
	if err := res.Report().WriteJSON(&repBuf); err != nil {
		t.Fatal(err)
	}
	return nbBuf.Bytes(), mdBuf.Bytes(), repBuf.Bytes()
}

// normalizeReport strips the report fields that legitimately vary
// between a server job and a one-shot run: wall-clock timings, the
// thread count, and (when stripCache is set) the cache counters, which
// on a warm shared cache are deltas over prior jobs' entries.
func normalizeReport(t *testing.T, data []byte, stripCache bool) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	delete(m, "timings")
	if c, ok := m["config"].(map[string]any); ok {
		delete(c, "threads")
	}
	if stripCache {
		if c, ok := m["counts"].(map[string]any); ok {
			for _, k := range []string{"CubesBuilt", "CacheHits", "CacheRollups", "CacheMisses", "CacheEvictions"} {
				delete(c, k)
			}
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerMatchesOneShot is the core e2e contract: a notebook
// generated through the daemon — admission, queueing, the shared cube
// cache, per-job observability — is byte-identical to one produced by a
// direct pipeline.Generate with the same Config, at every Threads
// setting, cold or warm cache.
func TestServerMatchesOneShot(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 600)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 2})
	defer shutdown()
	loadRelation(t, base, "tiny", csvPath)

	for i, threads := range []int{1, 3} {
		req := jobRequest{Relation: "tiny", Queries: 5, Perms: 120, Seed: 7, Threads: threads}
		gotNB, gotMD, gotRep := runServerJob(t, base, req)
		wantNB, wantMD, wantRep := oneShot(t, csvPath, req)

		if !bytes.Equal(gotNB, wantNB) {
			t.Errorf("threads=%d: server ipynb differs from one-shot (%d vs %d bytes)", threads, len(gotNB), len(wantNB))
		}
		if !bytes.Equal(gotMD, wantMD) {
			t.Errorf("threads=%d: server markdown differs from one-shot", threads)
		}
		// The first job runs against a cold shared cache, so even its
		// per-run cache counters must match the one-shot run exactly;
		// warm jobs see hits where the one-shot run saw misses.
		stripCache := i > 0
		if got, want := normalizeReport(t, gotRep, stripCache), normalizeReport(t, wantRep, stripCache); !bytes.Equal(got, want) {
			t.Errorf("threads=%d: server report differs from one-shot\n got: %s\nwant: %s", threads, got, want)
		}
	}
}

// TestServerDegradedRunMatchesOneShot drives the degradation ladder
// through the daemon: a 1ns TimeBudget makes every governor admission
// see an expired deadline, so the run sheds deterministically — and the
// degraded notebook must still be byte-identical to a one-shot run with
// the same budget, with the report recording the concessions.
func TestServerDegradedRunMatchesOneShot(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 600)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csvPath)

	req := jobRequest{Relation: "tiny", Queries: 5, Perms: 120, Seed: 7, Threads: 2, TimeBudgetNS: 1}
	id := submitJob(t, base, req)
	v := waitJob(t, base, id)
	if v.State != stateDone {
		t.Fatalf("degraded job finished %s (%s), want done", v.State, v.Error)
	}
	if v.Summary == nil || len(v.Summary.Degraded) == 0 {
		t.Errorf("degraded run's status reports no degraded phases: %+v", v.Summary)
	}
	gotNB := mustGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
	gotRep := mustGet(t, base+"/v1/jobs/"+id+"/result?format=report")
	if !strings.Contains(string(gotRep), "phase_degraded") {
		t.Errorf("degraded run's report carries no phase_degraded record")
	}

	wantNB, _, wantRep := oneShot(t, csvPath, req)
	if !bytes.Equal(gotNB, wantNB) {
		t.Errorf("degraded server ipynb differs from degraded one-shot")
	}
	if got, want := normalizeReport(t, gotRep, false), normalizeReport(t, wantRep, false); !bytes.Equal(got, want) {
		t.Errorf("degraded server report differs from one-shot\n got: %s\nwant: %s", got, want)
	}
}

// TestServerSessionLifecycle exercises the relation registry over HTTP:
// upload, duplicate refusal, listing, job against the upload, drop with
// cache eviction, and 404 afterwards.
func TestServerSessionLifecycle(t *testing.T) {
	ds, err := datagen.Tiny(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}

	s, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()

	if status, body, err := upload(base, "up", bytes.NewReader(csv.Bytes())); err != nil || status != http.StatusCreated {
		t.Fatalf("upload: status %d, err %v: %s", status, err, body)
	}
	if status, _, err := upload(base, "up", bytes.NewReader(csv.Bytes())); err != nil || status != http.StatusConflict {
		t.Errorf("duplicate upload: status %d, err %v; want 409", status, err)
	}

	var list []sessionView
	if err := json.Unmarshal(mustGet(t, base+"/v1/relations"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "up" || list[0].Rows != 400 {
		t.Fatalf("relation list = %+v, want one 400-row relation named up", list)
	}

	id := submitJob(t, base, jobRequest{Relation: "up", Queries: 4, Perms: 100, Seed: 2})
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job on uploaded relation finished %s (%s)", v.State, v.Error)
	}

	delReq, err := http.NewRequest(http.MethodDelete, base+"/v1/relations/up", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var drop dropResponse
	err = json.NewDecoder(resp.Body).Decode(&drop)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: status %d, err %v", resp.StatusCode, err)
	}
	if drop.CacheEntriesDropped == 0 {
		t.Errorf("dropping a relation that just ran a job evicted no cache entries")
	}
	if s.cache.Stats().Entries != 0 {
		t.Errorf("cache still holds %d entries after the only relation was dropped", s.cache.Stats().Entries)
	}
	if status, _ := postJSON(t, base+"/v1/notebooks", jobRequest{Relation: "up", Queries: 4, Perms: 100}); status != http.StatusNotFound {
		t.Errorf("job on dropped relation: status %d, want 404", status)
	}
}

// TestRelationLoadReadsNoServerFile: a JSON body naming a file on the
// daemon's filesystem does not load that file. With or without ?name=,
// neither the response nor the relation list carries any of its bytes.
func TestRelationLoadReadsNoServerFile(t *testing.T) {
	secret := filepath.Join(t.TempDir(), "secret.env")
	if err := os.WriteFile(secret, []byte("db_password=hunter2\nother=1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()

	leaks := func(body []byte) bool {
		return bytes.Contains(body, []byte("hunter2")) || bytes.Contains(body, []byte("db_password"))
	}
	for _, target := range []string{"/v1/relations", "/v1/relations?name=leak"} {
		status, body := postJSON(t, base+target, map[string]any{"name": "leak", "path": secret})
		if leaks(body) {
			t.Errorf("POST %s naming a file: status %d, body carries the file: %s", target, status, body)
		}
	}
	if list := mustGet(t, base+"/v1/relations"); leaks(list) {
		t.Errorf("relation list carries the named file: %s", list)
	}
}

// TestServerUploadBound: an upload of exactly MaxUploadBytes loads, and
// one byte more is refused with 413 whether the body declares its length
// or arrives chunked without one.
func TestServerUploadBound(t *testing.T) {
	ds, err := datagen.Tiny(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	limit := int64(csv.Len())
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1, MaxUploadBytes: limit})
	defer shutdown()

	over := append(bytes.Clone(csv.Bytes()), '\n') // a blank line: still a valid CSV
	cases := []struct {
		name string
		body io.Reader
		want int
	}{
		{"exact", bytes.NewReader(csv.Bytes()), http.StatusCreated},
		{"exact-chunked", struct{ io.Reader }{bytes.NewReader(csv.Bytes())}, http.StatusCreated},
		{"over", bytes.NewReader(over), http.StatusRequestEntityTooLarge},
		{"over-chunked", struct{ io.Reader }{bytes.NewReader(over)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		status, body, err := upload(base, tc.name, tc.body)
		if err != nil || status != tc.want {
			t.Errorf("%s: status %d, err %v; want %d: %s", tc.name, status, err, tc.want, body)
		}
	}
	var list []sessionView
	if err := json.Unmarshal(mustGet(t, base+"/v1/relations"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Rows != 200 || list[1].Rows != 200 {
		t.Errorf("relation list = %+v, want the two exact uploads of 200 rows", list)
	}
}

// TestServerRequestValidation covers the admission-side 4xx surface.
func TestServerRequestValidation(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 200)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csvPath)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown relation", map[string]any{"relation": "nope"}, http.StatusNotFound},
		{"bad solver", map[string]any{"relation": "tiny", "solver": "oracle"}, http.StatusBadRequest},
		{"bad sampling", map[string]any{"relation": "tiny", "sampling": "psychic"}, http.StatusBadRequest},
		{"negative budget", map[string]any{"relation": "tiny", "time_budget_ns": -1}, http.StatusBadRequest},
		{"unknown field", map[string]any{"relation": "tiny", "permz": 3}, http.StatusBadRequest},
		{"invalid config", map[string]any{"relation": "tiny", "perms": 2, "alpha": 0.05}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body := postJSON(t, base+"/v1/notebooks", tc.body); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
	}
	if status, _ := httpGet(t, base+"/v1/jobs/j999999"); status != http.StatusNotFound {
		t.Errorf("unknown job: want 404, got %d", status)
	}

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	waitJob(t, base, id)
	if status, _ := httpGet(t, fmt.Sprintf("%s/v1/jobs/%s/result?format=sculpture", base, id)); status != http.StatusBadRequest {
		t.Errorf("unknown artifact format: want 400, got %d", status)
	}
}

// TestServerEventsStream checks the SSE endpoint replays the full event
// log of a finished job: state transitions, phase spans from the per-job
// registry, log lines, and the terminal done event with its summary.
func TestServerEventsStream(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csvPath)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 5})
	waitJob(t, base, id)
	stream := string(mustGet(t, base+"/v1/jobs/"+id+"/events"))

	for _, want := range []string{
		"event: state", `data: {"state":"queued"}`, `data: {"state":"running"}`,
		"event: phase", `"name":"phase/stats"`, `"name":"run"`,
		"event: log",
		"event: done", `"queries":4`,
	} {
		if !strings.Contains(stream, want) {
			t.Errorf("SSE stream missing %q\nstream:\n%s", want, stream)
		}
	}
}
