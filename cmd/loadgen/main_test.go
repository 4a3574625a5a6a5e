package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/durable"
	"comparenb/internal/server"
)

// startDaemon runs an internal/server on stateDir behind httptest and
// returns a loadgen client for it. stop drains the server (running jobs
// finish, queued ones stay journaled for the next boot); it also runs at
// test cleanup.
func startDaemon(t *testing.T, stateDir string) (cl *client, stop func()) {
	t.Helper()
	s, err := server.New(server.Options{StateDir: stateDir, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	hs := httptest.NewServer(s.Handler())
	var once sync.Once
	stop = func() {
		once.Do(func() {
			hs.Close()
			cancel()
			if err := <-done; err != nil {
				t.Errorf("server Run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return &client{base: hs.URL, http: &http.Client{Timeout: time.Minute}}, stop
}

// admit submits one notebook job under loadgen's deterministic
// traceparent without following it, and returns its job id.
func admit(t *testing.T, cl *client, seed int64) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{"relation": "tiny", "tenant": tenant, "queries": 3, "perms": 40, "seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", cl.base+"/v1/notebooks", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	header, _ := requestTraceparent(seed)
	req.Header.Set("traceparent", header)
	resp, err := cl.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out struct {
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("admit: %s, decode err %v", resp.Status, err)
	}
	return out.JobID
}

// restartedDaemon admits three traced jobs on a durable daemon, stops it
// once the first job is done (later jobs may still be queued or running),
// and deletes the journal's job-done records: the journal a kill -9
// between job-start and job-done would leave. It keeps a copy of that
// journal, restarts the daemon on the state dir, and returns the
// restarted daemon's client, the copy's path and the admitted job ids.
func restartedDaemon(t *testing.T) (*client, string, []string) {
	t.Helper()
	dir := t.TempDir()
	cl, stop := startDaemon(t, dir)
	ds, err := datagen.Tiny(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := cl.upload("tiny", csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, admit(t, cl, seed))
	}
	waitDone(t, cl, ids[0])
	stop()
	journal := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.Contains(line, `"t":"job-done"`) {
			kept = append(kept, line)
		}
	}
	crashed := []byte(strings.Join(kept, ""))
	atCrash := filepath.Join(t.TempDir(), "journal.jsonl")
	for _, path := range []string{journal, atCrash} {
		if err := os.WriteFile(path, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cl, _ = startDaemon(t, dir)
	return cl, atCrash, ids
}

// waitDone polls job id until it is done.
func waitDone(t *testing.T, cl *client, id string) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var st struct {
			State string `json:"state"`
		}
		if err := cl.getJSON("/v1/jobs/"+id, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return
		}
	}
	t.Fatalf("job %s not done after a minute", id)
}

func TestResumeVerifiesRecoveredTraces(t *testing.T) {
	cl, journal, ids := restartedDaemon(t)
	out := filepath.Join(t.TempDir(), "resume.json")
	if err := runResume(cl, out, journal, 5*time.Millisecond, time.Minute); err != nil {
		t.Fatalf("runResume: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res resumeOut
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(ids) || res.Done != len(ids) || res.TraceVerified != len(ids) || res.Rerun < 1 ||
		res.NotebooksRead != len(ids) {
		t.Errorf("resume summary %+v: want %d jobs, all done, trace-verified and read, and at least one re-run", res, len(ids))
	}
}

// TestResumeFailsOnUnreadableNotebook: a done job whose stored notebook
// disappears while the daemon runs fails -resume, which names the job.
func TestResumeFailsOnUnreadableNotebook(t *testing.T) {
	dir := t.TempDir()
	cl, _ := startDaemon(t, dir)
	id, err := runSubmit(cl, 1, 200, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, durable.ArtifactsDir, id, "ipynb")); err != nil {
		t.Fatal(err)
	}
	err = runResume(cl, filepath.Join(t.TempDir(), "resume.json"), "", 5*time.Millisecond, time.Minute)
	if err == nil || !strings.Contains(err.Error(), id) || !strings.Contains(err.Error(), "500") {
		t.Errorf("runResume err = %v, want a failure naming %s and its 500", err, id)
	}
}

// TestResumeRequiresRerunOfInterruptedJob: -journal fails a recovery in
// which no started job was cut off, and one in which a cut-off job did
// not run again.
func TestResumeRequiresRerunOfInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	cl, stop := startDaemon(t, dir)
	if _, err := runSubmit(cl, 2, 200, 3, 40); err != nil {
		t.Fatal(err)
	}
	stop()
	cl, _ = startDaemon(t, dir)
	err := runResume(cl, filepath.Join(t.TempDir(), "resume.json"), filepath.Join(dir, "journal.jsonl"), 5*time.Millisecond, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "interrupted no run") {
		t.Errorf("every job finished before the stop: runResume err = %v, want a no-interrupted-run failure", err)
	}

	cl, journal, ids := restartedDaemon(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the first job had already used more attempts than its re-run
	// brings it to.
	forged := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(forged, bytes.ReplaceAll(data, []byte(`"attempt":1`), []byte(`"attempt":9`)), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runResume(cl, filepath.Join(t.TempDir(), "resume.json"), forged, 5*time.Millisecond, time.Minute)
	if err == nil || !strings.Contains(err.Error(), ids[0]) || !strings.Contains(err.Error(), "attempt 9") {
		t.Errorf("runResume err = %v, want a failure naming %s interrupted in attempt 9", err, ids[0])
	}
}

func TestResumeFailsOnTraceMismatch(t *testing.T) {
	cl, journal, ids := restartedDaemon(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trace id of the first job's admission record.
	want, _ := requestTraceparent(1)
	trace := strings.Split(want, "-")[1]
	if !bytes.Contains(data, []byte(trace)) {
		t.Fatalf("journal holds no record with trace %s:\n%s", trace, data)
	}
	forged := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(forged, bytes.ReplaceAll(data, []byte(trace), []byte(strings.Repeat("ab", 16))), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runResume(cl, filepath.Join(t.TempDir(), "resume.json"), forged, 5*time.Millisecond, time.Minute)
	if err == nil || !strings.Contains(err.Error(), ids[0]) || !strings.Contains(err.Error(), "trace_id") {
		t.Fatalf("runResume err = %v, want a trace_id mismatch naming %s", err, ids[0])
	}
}

func TestResumeFailsWithoutJournaledJobs(t *testing.T) {
	cl, _ := startDaemon(t, t.TempDir())
	err := runResume(cl, filepath.Join(t.TempDir(), "resume.json"), "", 5*time.Millisecond, 200*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "no journaled jobs") {
		t.Fatalf("runResume err = %v, want a no-journaled-jobs failure", err)
	}
}

func TestJournalTracesTornLines(t *testing.T) {
	const (
		a    = `{"t":"job-admit","id":"j000001","trace":"0123456789abcdef0123456789abcdef"}`
		b    = `{"t":"job-admit","id":"j000002","trace":"fedcba9876543210fedcba9876543210"}`
		torn = `{"t":"job-admit","id":"j0000`
	)
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	got, err := journalJobs(write("tail.jsonl", a+"\n"+b+"\n"+torn))
	if err != nil {
		t.Fatalf("torn last line: %v", err)
	}
	if len(got) != 2 || got[0].ID != "j000001" || got[0].Trace != "0123456789abcdef0123456789abcdef" ||
		got[1].ID != "j000002" || got[1].Trace != "fedcba9876543210fedcba9876543210" {
		t.Errorf("torn last line: jobs %+v, want both admitted jobs with their traces", got)
	}

	if _, err := journalJobs(write("middle.jsonl", a+"\n"+torn+"\n"+b+"\n")); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("torn middle line: err = %v, want an error naming record 2", err)
	}
}

// TestSubmitFailsUnlessEveryJobIsDone drives the server smoke's submit
// mode: a run whose jobs all finish passes, and one the daemon refuses
// (10 permutations cannot reach significance at α = 0.05) must fail
// rather than pass with no job done.
func TestSubmitFailsUnlessEveryJobIsDone(t *testing.T) {
	cl, _ := startDaemon(t, t.TempDir())
	id, err := runSubmit(cl, 2, 200, 3, 40)
	if err != nil || id == "" {
		t.Fatalf("runSubmit = %q, %v; want a finished job", id, err)
	}
	_, err = runSubmit(cl, 2, 200, 3, 10)
	if err == nil || !strings.Contains(err.Error(), "Perms=10") {
		t.Fatalf("runSubmit with -perms 10: err = %v, want the daemon's Perms=10 refusal", err)
	}
}
