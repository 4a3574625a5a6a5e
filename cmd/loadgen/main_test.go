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
	return &client{base: hs.URL, http: &http.Client{Timeout: time.Minute}, maxRetries: 3, retryCap: time.Second}, stop
}

// admit submits one notebook job under loadgen's deterministic
// traceparent without following it, and returns its job id.
func admit(t *testing.T, cl *client, tenant string, seed int64) string {
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
	header, _ := requestTraceparent(tenant, seed)
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
// at once (so later jobs may still be queued or running), and restarts it
// on the same state dir. It returns the restarted daemon's client, the
// journal path and the admitted job ids.
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
		ids = append(ids, admit(t, cl, "tenant-0", seed))
	}
	stop()
	cl, _ = startDaemon(t, dir)
	return cl, filepath.Join(dir, "journal.jsonl"), ids
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
	if res.Jobs != len(ids) || res.Done != len(ids) || res.TraceVerified != len(ids) {
		t.Errorf("resume summary %+v: want %d jobs, all done and trace-verified", res, len(ids))
	}
}

func TestResumeFailsOnTraceMismatch(t *testing.T) {
	cl, journal, ids := restartedDaemon(t)
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trace id of the first job's admission record.
	want, _ := requestTraceparent("tenant-0", 1)
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

	got, err := journalTraces(write("tail.jsonl", a+"\n"+b+"\n"+torn))
	if err != nil {
		t.Fatalf("torn last line: %v", err)
	}
	if len(got) != 2 || got["j000001"] != "0123456789abcdef0123456789abcdef" || got["j000002"] != "fedcba9876543210fedcba9876543210" {
		t.Errorf("torn last line: traces %v, want both admitted jobs", got)
	}

	if _, err := journalTraces(write("middle.jsonl", a+"\n"+torn+"\n"+b+"\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("torn middle line: err = %v, want an error naming line 2", err)
	}
}
