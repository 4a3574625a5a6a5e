package durable

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTestJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j, path
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := openTestJournal(t)
	want := []Record{
		{Type: RecSessionLoad, Name: "tiny", File: "relations/tiny.csv", Load: json.RawMessage(`{"max_rows":10}`)},
		{Type: RecJobAdmit, ID: "j000001", Tenant: "acme", Request: json.RawMessage(`{"relation":"tiny"}`)},
		{Type: RecJobStart, ID: "j000001", Attempt: 1},
		{Type: RecJobDone, ID: "j000001",
			Artifacts: map[string]ArtifactMeta{"ipynb": {SHA256: "ab", Bytes: 2}},
			Summary:   json.RawMessage(`{"queries":4}`)},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("record %d: got %s, want %s", i, g, w)
		}
	}
}

// TestJournalTornTailIgnored simulates a crash mid-append: a final line
// cut off partway (or missing its newline) must read as never written,
// while a torn record in the middle is corruption.
func TestJournalTornTailIgnored(t *testing.T) {
	j, path := openTestJournal(t)
	recs := []Record{
		{Type: RecJobAdmit, ID: "j000001"},
		{Type: RecJobStart, ID: "j000001", Attempt: 1},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, tail := range map[string]string{
		"partial JSON":     `{"t":"job-done","id":"j0000`,
		"missing newline":  `{"t":"job-done","id":"j000001"}`,
		"half aterminator": "{",
	} {
		torn := filepath.Join(t.TempDir(), "torn.jsonl")
		if err := os.WriteFile(torn, append(append([]byte(nil), data...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(torn)
		if err != nil {
			t.Fatalf("%s: torn tail should be skipped, got error %v", name, err)
		}
		if len(got) != 2 {
			t.Errorf("%s: read %d records, want the 2 acknowledged ones", name, len(got))
		}
	}

	// The same garbage mid-file is corruption, not a torn tail.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, append([]byte("{not json}\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(bad); err == nil {
		t.Error("mid-file corruption read back without error")
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing journal: got %v records, err %v; want nil, nil", recs, err)
	}
}

func TestStoreWriteReadVerified(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"cells": []}`)
	meta, err := s.WriteFile("artifacts/j000001/ipynb", data)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Bytes != int64(len(data)) || len(meta.SHA256) != 64 {
		t.Fatalf("fingerprint %+v looks wrong", meta)
	}
	got, err := s.ReadVerified("artifacts/j000001/ipynb", meta)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("read back %q, want %q", got, data)
	}

	// Overwrites are atomic replacements.
	if _, err := s.WriteFile("artifacts/j000001/ipynb", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.ReadFile("artifacts/j000001/ipynb"); string(got) != "v2" {
		t.Errorf("after overwrite read %q, want v2", got)
	}

	// Verification fails closed on corruption and on missing files, and
	// its error names the store path, not where the store lives.
	if _, err := s.ReadVerified("artifacts/j000001/ipynb", meta); err == nil {
		t.Error("ReadVerified accepted bytes that do not match the recorded hash")
	}
	_, err = s.ReadVerified("artifacts/gone", meta)
	if err == nil {
		t.Error("ReadVerified accepted a missing file")
	} else if msg := err.Error(); !strings.Contains(msg, "artifact artifacts/gone failed verification") || strings.Contains(msg, dir) {
		t.Errorf("missing file: error %q, want one naming the failed verification of artifacts/gone and not %s", msg, dir)
	}
}

// TestStoreSweepsTempFiles: a crash between temp write and rename leaves
// a .tmp file; reopening the store removes it and the final name never
// appears.
func TestStoreSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteFile("a/keep", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash artifact by hand.
	if err := os.WriteFile(filepath.Join(dir, "a", "partial.tmp"), []byte("par"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a", "partial.tmp")); !os.IsNotExist(err) {
		t.Errorf("temp file survived store reopen (err %v)", err)
	}
	if got, err := s.ReadFile("a/keep"); err != nil || string(got) != "kept" {
		t.Errorf("sweep touched a committed file: %q, %v", got, err)
	}
}

func TestStoreRefusesEscapes(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"../outside", "/etc/passwd", "a/../../outside"} {
		if _, err := s.WriteFile(rel, []byte("x")); err == nil || !strings.Contains(err.Error(), "escapes") {
			t.Errorf("WriteFile(%q) = %v, want escape refusal", rel, err)
		}
	}
}

func TestReplayFoldsLifecycles(t *testing.T) {
	recs := []Record{
		{Type: RecSessionLoad, Name: "a", File: "relations/a.csv"},
		{Type: RecSessionLoad, Name: "b", File: "relations/b.csv"},
		{Type: RecSessionDrop, Name: "a"},
		{Type: RecSessionLoad, Name: "a", File: "relations/a2.csv"},
		{Type: RecJobAdmit, ID: "j000001", Tenant: "t1", Trace: "0af7651916cd43dd8448eb211c80319c"},
		{Type: RecJobStart, ID: "j000001", Attempt: 1},
		{Type: RecJobDone, ID: "j000001", Artifacts: map[string]ArtifactMeta{"ipynb": {SHA256: "x", Bytes: 1}}},
		{Type: RecJobAdmit, ID: "j000002", Tenant: "t2", Trace: "1bf7651916cd43dd8448eb211c80319c"},
		{Type: RecJobStart, ID: "j000002", Attempt: 1},
		{Type: RecJobStart, ID: "j000002", Attempt: 2},
		{Type: RecJobAdmit, ID: "j000003", Tenant: "t1"},
		{Type: RecJobAdmit, ID: "j000004", Tenant: "t1"},
		{Type: RecJobFailed, ID: "j000004", Code: 503, Error: "drained"},
	}
	st, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sessions) != 2 || st.Sessions[0].Name != "a" || st.Sessions[0].File != "relations/a2.csv" {
		t.Fatalf("sessions = %+v, want reloaded a then b", st.Sessions)
	}
	if len(st.Jobs) != 4 {
		t.Fatalf("replayed %d jobs, want 4", len(st.Jobs))
	}
	byID := map[string]*JobState{}
	for _, j := range st.Jobs {
		byID[j.ID] = j
	}
	if j := byID["j000001"]; j.Terminal != RecJobDone || j.Interrupted() || j.Artifacts["ipynb"].Bytes != 1 {
		t.Errorf("done job folded wrong: %+v", j)
	}
	// Trace correlation survives the fold: the admit record's trace id
	// sticks to the job through start and terminal records.
	if j := byID["j000001"]; j.Trace != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("done job trace = %q, want admit trace kept", j.Trace)
	}
	if j := byID["j000002"]; !j.Interrupted() || j.Attempts != 2 {
		t.Errorf("interrupted running job folded wrong: %+v", j)
	}
	if j := byID["j000002"]; j.Trace != "1bf7651916cd43dd8448eb211c80319c" {
		t.Errorf("interrupted job trace = %q, want admit trace kept", j.Trace)
	}
	if j := byID["j000003"]; !j.Interrupted() || j.Attempts != 0 {
		t.Errorf("interrupted queued job folded wrong: %+v", j)
	}
	if j := byID["j000004"]; j.Terminal != RecJobFailed || j.Code != 503 {
		t.Errorf("failed job folded wrong: %+v", j)
	}
}

func TestReplayRejectsCorruption(t *testing.T) {
	cases := map[string][]Record{
		"start without admit": {{Type: RecJobStart, ID: "j1", Attempt: 1}},
		"done without admit":  {{Type: RecJobDone, ID: "j1"}},
		"double admit":        {{Type: RecJobAdmit, ID: "j1"}, {Type: RecJobAdmit, ID: "j1"}},
		"unknown type":        {{Type: "job-teleported", ID: "j1"}},
		"empty session name":  {{Type: RecSessionLoad}},
	}
	for name, recs := range cases {
		if _, err := Replay(recs); err == nil {
			t.Errorf("%s: replay accepted corrupt journal", name)
		}
	}
}

func TestRetryPolicy(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 3 || p.Base != 250*time.Millisecond {
		t.Fatalf("defaults = %+v", p)
	}
	if p.Exhausted(2) || !p.Exhausted(3) || !p.Exhausted(4) {
		t.Error("Exhausted boundary wrong for MaxAttempts=3")
	}
	if d := p.Backoff("j1", 0); d != 0 {
		t.Errorf("attempt 0 backoff = %v, want 0 (admitted jobs retry immediately)", d)
	}

	// Deterministic: same (id, attempt) always yields the same delay;
	// different ids de-synchronise.
	if a, b := p.Backoff("j1", 1), p.Backoff("j1", 1); a != b {
		t.Errorf("backoff not deterministic: %v vs %v", a, b)
	}
	if a, b := p.Backoff("j1", 2), p.Backoff("j2", 2); a == b {
		t.Logf("note: jitter collision between jobs (possible but unlikely): %v", a)
	}

	// Exponential envelope: delay for attempt N lies in [base·2^(N−1), 1.5×that], capped.
	p = RetryPolicy{MaxAttempts: 10, Base: 100 * time.Millisecond}.WithDefaults()
	for attempt := 1; attempt <= 9; attempt++ {
		want := 100 * time.Millisecond << (attempt - 1)
		if limit := 64 * 100 * time.Millisecond; want > limit {
			want = limit
		}
		d := p.Backoff("job", attempt)
		if d < want || d > want+want/2 {
			t.Errorf("attempt %d backoff %v outside [%v, %v]", attempt, d, want, want+want/2)
		}
	}
}
