package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comparenb/internal/durable"
)

// startDurableServer is startTestServer with a state dir.
func startDurableServer(t *testing.T, stateDir string, opts Options) (*Server, string, func()) {
	t.Helper()
	opts.StateDir = stateDir
	return startTestServer(t, opts)
}

// waitReady polls /readyz to 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _ := httpGet(t, base+"/readyz")
		if status == http.StatusOK {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// writeCrashedState hand-authors a state dir as a crash left it: the CSV
// file at csv stored as relations/tiny.csv, and recs as the journal.
func writeCrashedState(t *testing.T, stateDir, csv string, recs ...durable.Record) {
	t.Helper()
	journalPath, err := durable.StateDirLayout(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.OpenStore(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	csvBytes, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteFile("relations/tiny.csv", csvBytes); err != nil {
		t.Fatal(err)
	}
	jr, err := durable.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
}

// admitRecord is the job-admit record of job id running req.
func admitRecord(t *testing.T, id string, req jobRequest) durable.Record {
	t.Helper()
	reqJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return durable.Record{Type: durable.RecJobAdmit, ID: id, Tenant: "default", Request: reqJSON}
}

// TestRecoveryRestoresSessionsAndArtifacts is the clean-restart half of
// the durability contract: run jobs against a durable server, shut it
// down gracefully, reopen the same state dir, and every completed job
// must come back — same artifacts byte for byte, same sessions, and new
// job ids continuing after the old ones.
func TestRecoveryRestoresSessionsAndArtifacts(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 7, 60)
	req := jobRequest{Relation: "tiny", Queries: 4, Perms: 40, Seed: 7}

	_, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
	id := submitJob(t, base, req)
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	}
	want := make(map[string][]byte)
	for _, format := range []string{"ipynb", "markdown", "html", "report", "trace", "metrics"} {
		want[format] = mustGet(t, base+"/v1/jobs/"+id+"/result?format="+format)
	}
	shutdown()

	// Second life: same state dir, nothing preloaded.
	s2, base2, shutdown2 := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	defer shutdown2()
	waitReady(t, base2)

	var sessions []sessionView
	if err := json.Unmarshal(mustGet(t, base2+"/v1/relations"), &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Name != "tiny" || sessions[0].Rows != 60 {
		t.Fatalf("recovered sessions = %+v, want tiny with 60 rows", sessions)
	}

	if v := waitJob(t, base2, id); v.State != stateDone {
		t.Fatalf("recovered job %s is %s (%s), want done", id, v.State, v.Error)
	}
	for format, wantBytes := range map[string][]byte{"ipynb": want["ipynb"], "report": want["report"], "html": want["html"]} {
		got := mustGet(t, base2+"/v1/jobs/"+id+"/result?format="+format)
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("recovered %s artifact differs from the original (%d vs %d bytes)", format, len(got), len(wantBytes))
		}
	}
	if got := s2.cRecoveredDone.Value(); got != 1 {
		t.Errorf("server_recovered_done = %d, want 1", got)
	}

	// A fresh job on the recovered server must not collide with the
	// journaled id and must still run against the recovered relation.
	id2 := submitJob(t, base2, req)
	if id2 == id {
		t.Fatalf("job id %s reused after recovery", id2)
	}
	if v := waitJob(t, base2, id2); v.State != stateDone {
		t.Fatalf("post-recovery job finished %s (%s), want done", v.State, v.Error)
	}
	got2 := mustGet(t, base2+"/v1/jobs/"+id2+"/result?format=ipynb")
	if !bytes.Equal(got2, want["ipynb"]) {
		t.Error("post-recovery job's notebook differs from the pre-restart run")
	}
}

// TestRecoveryVerifiesArtifactHashes: corrupting a stored artifact must
// not let near-right bytes reach a client — the job is re-run (the
// relation is still recoverable), and the served artifact is correct
// again.
func TestRecoveryVerifiesArtifactHashes(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 11, 50)
	req := jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 11}

	_, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
	id := submitJob(t, base, req)
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}
	want := mustGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
	shutdown()

	// Flip bytes in the stored notebook behind the journal's back.
	artPath := filepath.Join(stateDir, durable.ArtifactsDir, id, "ipynb")
	if err := os.WriteFile(artPath, []byte(`{"cells":"tampered"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, base2, shutdown2 := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	defer shutdown2()
	waitReady(t, base2)
	if got := s2.cVerifyFail.Value(); got != 1 {
		t.Errorf("server_artifact_verify_failures = %d, want 1", got)
	}
	if v := waitJob(t, base2, id); v.State != stateDone {
		t.Fatalf("re-run after tampering finished %s (%s), want done", v.State, v.Error)
	}
	got := mustGet(t, base2+"/v1/jobs/"+id+"/result?format=ipynb")
	if !bytes.Equal(got, want) {
		t.Error("re-run notebook differs from the original bytes")
	}
}

// TestServeVerifiesStoredArtifacts: a durable server reads a done job's
// artifacts from its store on each request. Tampering with the stored
// notebook while the server runs turns that format into a 500 naming the
// failed verification, never the tampered bytes, and the job's other
// formats still serve.
func TestServeVerifiesStoredArtifacts(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 11, 50)
	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)
	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 11})
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job finished %s, want done", v.State)
	}
	mustGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")

	artPath := filepath.Join(stateDir, durable.ArtifactsDir, id, "ipynb")
	if err := os.WriteFile(artPath, []byte(`{"cells":"tampered"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	status, body := httpGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("failed verification")) ||
		bytes.Contains(body, []byte("tampered")) {
		t.Errorf("tampered notebook: status %d body %.200s; want 500 naming the failed verification", status, body)
	}
	if got := s.cVerifyFail.Value(); got != 1 {
		t.Errorf("server_artifact_verify_failures = %d, want 1", got)
	}
	for _, format := range []string{"markdown", "html", "report", "trace", "metrics"} {
		mustGet(t, base+"/v1/jobs/"+id+"/result?format="+format)
	}
}

// TestRecoveryQuarantinesExhaustedJobs: a journal whose job was
// interrupted MaxAttempts times must come back failed_permanent with the
// recorded reason — and stay quarantined across yet another restart,
// even with a bigger retry budget (the terminal record wins).
func TestRecoveryQuarantinesExhaustedJobs(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 3, 40)

	// Hand-author the crashed state: a loaded relation and a job that
	// started twice without ever finishing.
	writeCrashedState(t, stateDir, csv,
		durable.Record{Type: durable.RecSessionLoad, Name: "tiny", File: "relations/tiny.csv"},
		admitRecord(t, "j000001", jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 3}),
		durable.Record{Type: durable.RecJobStart, ID: "j000001", Attempt: 1},
		durable.Record{Type: durable.RecJobStart, ID: "j000001", Attempt: 2},
	)

	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, MaxAttempts: 2})
	waitReady(t, base)
	v := waitJob(t, base, "j000001")
	if v.State != stateFailedPermanent {
		t.Fatalf("exhausted job recovered as %s (%s), want failed_permanent", v.State, v.Error)
	}
	if v.Error == "" {
		t.Error("quarantined job has no recorded reason")
	}
	status, body := httpGet(t, base+"/v1/jobs/j000001/result")
	if status != http.StatusInternalServerError || !bytes.Contains(body, []byte("quarantined")) {
		t.Errorf("quarantined result = %d %s, want 500 naming the quarantine", status, body)
	}
	if got := s.cQuarantined.Value(); got != 1 {
		t.Errorf("server_jobs_quarantined = %d, want 1", got)
	}
	shutdown()

	// Restart with a generous retry budget: the journaled permanent
	// failure must hold.
	_, base3, shutdown3 := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, MaxAttempts: 10})
	defer shutdown3()
	waitReady(t, base3)
	if v := waitJob(t, base3, "j000001"); v.State != stateFailedPermanent {
		t.Fatalf("quarantine did not survive restart: %s", v.State)
	}
}

// TestRecoveryBackoffHoldsJob: an interrupted job re-enqueued with a
// large retry base stays queued until its notBefore passes — dequeue
// must not run it early.
func TestRecoveryBackoffHoldsJob(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 5, 40)

	writeCrashedState(t, stateDir, csv,
		durable.Record{Type: durable.RecSessionLoad, Name: "tiny", File: "relations/tiny.csv"},
		admitRecord(t, "j000001", jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 5}),
		durable.Record{Type: durable.RecJobStart, ID: "j000001", Attempt: 1},
	)

	// Backoff for attempt 1 is >= RetryBase: with a 30s base the job
	// must still be queued well after recovery.
	s, base, shutdown := startDurableServer(t, stateDir,
		Options{MaxConcurrent: 1, MaxAttempts: 5, RetryBase: 30 * time.Second})
	defer shutdown()
	waitReady(t, base)
	if got := s.cRecoveredRequeued.Value(); got != 1 {
		t.Fatalf("server_recovered_requeued = %d, want 1", got)
	}
	time.Sleep(50 * time.Millisecond)
	var v jobStatusView
	if err := json.Unmarshal(mustGet(t, base+"/v1/jobs/j000001"), &v); err != nil {
		t.Fatal(err)
	}
	if v.State != stateQueued {
		t.Fatalf("job under 30s backoff is %s, want still queued", v.State)
	}
	if v.Attempts != 1 {
		t.Errorf("recovered job attempts = %d, want 1", v.Attempts)
	}
}

// TestRecoveryReplaysOldLoadRecord: a session-load record as older
// servers wrote it for every upload, whose load field sets no loader
// option, recovers its relation, and the job interrupted over it re-runs
// to done.
func TestRecoveryReplaysOldLoadRecord(t *testing.T) {
	stateDir := t.TempDir()
	writeCrashedState(t, stateDir, writeTinyCSV(t, 3, 40),
		durable.Record{Type: durable.RecSessionLoad, Name: "tiny", File: "relations/tiny.csv",
			Load: json.RawMessage(`{"name":"","path":""}`)},
		admitRecord(t, "j000001", jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 3}),
		durable.Record{Type: durable.RecJobStart, ID: "j000001", Attempt: 1},
	)
	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, RetryBase: time.Millisecond})
	defer shutdown()
	waitReady(t, base)
	var sessions []sessionView
	if err := json.Unmarshal(mustGet(t, base+"/v1/relations"), &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Name != "tiny" || sessions[0].Rows != 40 {
		t.Errorf("recovered sessions = %+v, want tiny with 40 rows", sessions)
	}
	if v := waitJob(t, base, "j000001"); v.State != stateDone {
		t.Errorf("interrupted job recovered as %s (%s), want re-run to done", v.State, v.Error)
	}
	if got := s.cJournalErr.Value(); got != 0 {
		t.Errorf("server_journal_errors = %d, want 0", got)
	}
}

// TestRecoveryRefusesOldLoadRecordWithOptions: a session-load record
// whose load field sets a loader option, as an older server's load of a
// file could, is not recovered: re-parsed without the option, the
// relation would not be the one its jobs were admitted against. The
// refusal counts in server_journal_errors and the job interrupted over
// the relation is quarantined.
func TestRecoveryRefusesOldLoadRecordWithOptions(t *testing.T) {
	stateDir := t.TempDir()
	writeCrashedState(t, stateDir, writeTinyCSV(t, 3, 40),
		durable.Record{Type: durable.RecSessionLoad, Name: "tiny", File: "relations/tiny.csv",
			Load: json.RawMessage(`{"name":"","path":"","max_categorical_cardinality":1000}`)},
		admitRecord(t, "j000001", jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 3}),
		durable.Record{Type: durable.RecJobStart, ID: "j000001", Attempt: 1},
	)
	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, RetryBase: time.Millisecond})
	defer shutdown()
	waitReady(t, base)
	if body := mustGet(t, base+"/v1/relations"); !bytes.Equal(bytes.TrimSpace(body), []byte("[]")) {
		t.Errorf("recovered sessions = %s, want none", body)
	}
	v := waitJob(t, base, "j000001")
	if v.State != stateFailedPermanent || !strings.Contains(v.Error, `relation "tiny" not recoverable`) {
		t.Errorf("job over the refused relation: %s (%s), want failed_permanent, relation not recoverable", v.State, v.Error)
	}
	if got := s.cJournalErr.Value(); got != 1 {
		t.Errorf("server_journal_errors = %d, want 1", got)
	}
}

// TestReadyzGatesDuringReplay: while Run replays the journal, /readyz is
// 503 and admission is refused, while /livez stays 200; both settle once
// replay finishes.
func TestReadyzGatesDuringReplay(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 9, 40)

	// First life just to populate the journal with one session.
	_, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
	shutdown()

	// Second life: observe the not-ready window directly by serving the
	// handler before calling Run — exactly the state a real daemon is in
	// between binding its listener and finishing the replay.
	s, err := New(Options{MaxConcurrent: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ready := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.ready
	}
	if ready() {
		t.Fatal("durable server reports ready before Run replayed the journal")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	hs := ts.URL
	if status, _ := httpGet(t, hs+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("/readyz before replay = %d, want 503", status)
	}
	if status, _ := httpGet(t, hs+"/livez"); status != http.StatusOK {
		t.Errorf("/livez before replay = %d, want 200", status)
	}
	if status, body := postJSON(t, hs+"/v1/notebooks", jobRequest{Relation: "tiny"}); status != http.StatusServiceUnavailable {
		t.Errorf("admission before replay = %d %s, want 503", status, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	waitReady(t, hs)
	if !ready() {
		t.Error("server not ready after /readyz turned 200")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if status, _ := httpGet(t, hs+"/readyz"); status != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503 (draining)", status)
	}
	if status, _ := httpGet(t, hs+"/livez"); status != http.StatusOK {
		t.Errorf("/livez after drain = %d, want 200", status)
	}
}

// TestJournalAdmitFault: a fault at the admission journal append must
// refuse the job (500) without registering it — write-ahead means no
// acknowledged job can be missing from the journal.
func TestJournalAdmitFault(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 13, 40)
	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)
	waitReady(t, base)

	// Close the journal under the server to make the next append fail.
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, base+"/v1/notebooks", jobRequest{Relation: "tiny"})
	if status != http.StatusInternalServerError {
		t.Fatalf("admission with a dead journal = %d %s, want 500", status, body)
	}
	var jobs []jobStatusView
	if err := json.Unmarshal(mustGet(t, base+"/v1/jobs"), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("refused admission still registered %d job(s)", len(jobs))
	}
	if got := s.cJournalErr.Value(); got == 0 {
		t.Error("journal error not counted")
	}
}

// TestSSELogBounded: past maxJobEvents the log drops its oldest entries,
// eventsSince reports the gap, and memory stays bounded.
func TestSSELogBounded(t *testing.T) {
	j := &job{id: "j1", state: stateRunning}
	const total = maxJobEvents + 500
	for i := 0; i < total; i++ {
		j.publish("log", logEvent{Line: fmt.Sprintf("line %d", i)})
	}
	j.mu.Lock()
	n, first := len(j.events), j.firstIdx
	j.mu.Unlock()
	if n != maxJobEvents {
		t.Fatalf("event log holds %d entries, want capped at %d", n, maxJobEvents)
	}
	if first != total-maxJobEvents {
		t.Fatalf("firstIdx = %d, want %d", first, total-maxJobEvents)
	}
	evs, start, _ := j.eventsSince(0)
	if start != first {
		t.Errorf("eventsSince(0) start = %d, want the gap to %d reported", start, first)
	}
	if len(evs) != maxJobEvents {
		t.Errorf("eventsSince(0) returned %d events, want %d", len(evs), maxJobEvents)
	}
	// A reader that kept up sees no gap.
	if _, start, _ := j.eventsSince(total); start != total {
		t.Errorf("caught-up reader start = %d, want %d", start, total)
	}
}

// TestSlowSubscriberDoesNotBlockPublish: a subscriber that never drains
// its notify channel must not stall publish or the job's terminal
// transition.
func TestSlowSubscriberDoesNotBlockPublish(t *testing.T) {
	j := &job{id: "j1", state: stateRunning}
	_, unsub := j.subscribe() // never read from the channel
	defer unsub()

	doneCh := make(chan struct{})
	go func() {
		for i := 0; i < 3000; i++ {
			j.publish("log", logEvent{Line: "spam"})
		}
		j.finish(stateDone, jobEnd{summary: &jobSummary{}})
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing with a never-reading subscriber blocked")
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateDone {
		t.Fatalf("job state = %s, want done", j.state)
	}
}

// TestSlowSSEClientDoesNotBlockJob drives the HTTP path: an /events
// stream that is opened but never read must not stop the job from
// finishing, and the handler goroutine must exit once the client goes
// away (shutdown() joins all goroutines and -race would flag leaks).
func TestSlowSSEClientDoesNotBlockJob(t *testing.T) {
	csv := writeTinyCSV(t, 17, 50)
	_, base, shutdown := startTestServer(t, Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 17})
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	// Never read resp.Body while the job runs.
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job with an unread SSE stream finished %s, want done", v.State)
	}
	_ = resp.Body.Close() // now drop the client; the handler exits
}
