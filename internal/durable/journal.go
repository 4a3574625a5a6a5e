// Package durable is the crash-safety layer under the notebook server:
// a write-ahead job journal plus an atomic artifact store, both rooted
// in one operator-chosen state directory. The server journals every
// lifecycle transition (session loads, job admissions, starts, terminal
// states) before acknowledging it, persists finished artifacts with a
// temp-file/fsync/rename protocol, and on restart replays the journal to
// reconstruct exactly the state a crash interrupted.
//
// The package deliberately knows nothing about HTTP, jobs or pipelines:
// records carry opaque JSON payloads (requests, summaries) that the
// server round-trips. What durable owns is the on-disk discipline —
// every write is followed by an fsync before it is relied upon, every
// visible file arrives by rename, and a record torn by a crash
// mid-append is indistinguishable from one never written.
//
// Fault sites: the DiskWrite, DiskFsync and DiskRename hooks in
// internal/faultinject fire immediately before the corresponding
// syscall, so crash tests can kill the process at any persistence
// boundary. See docs/ROBUSTNESS.md.
package durable

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"comparenb/internal/faultinject"
)

// Record types. The journal is append-only JSONL; each line is one
// Record whose Type selects which fields are meaningful.
const (
	// RecSessionLoad registers a relation: Name and File (the stored CSV,
	// relative to the state dir). Load, opaque here, holds the loader
	// options older servers journaled with each load.
	RecSessionLoad = "session-load"
	// RecSessionDrop removes a relation by Name.
	RecSessionDrop = "session-drop"
	// RecJobAdmit admits a job: ID, Tenant and Request (opaque).
	RecJobAdmit = "job-admit"
	// RecJobStart marks one execution attempt of a job: ID, Attempt
	// (1-based). A job with a start record and no terminal record was
	// interrupted by a crash.
	RecJobStart = "job-start"
	// RecJobDone completes a job: ID, Artifacts (per-format hash/size,
	// the files live in the artifact store) and Summary (opaque).
	RecJobDone = "job-done"
	// RecJobFailed fails a job: ID, Code, Error. Permanent marks a
	// quarantine decision — replay must not retry the job again.
	RecJobFailed = "job-failed"
	// RecJobCancelled cancels a job: ID.
	RecJobCancelled = "job-cancelled"
)

// ArtifactMeta is the journal's fingerprint of one stored artifact. The
// recorded hash is what recovery verifies recovered bytes against —
// extending the byte-identity gate across a process boundary.
type ArtifactMeta struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Record is one journal line. Unused fields stay at their zero values
// and are elided from the JSON.
type Record struct {
	Type string `json:"t"`

	// Session fields.
	Name string          `json:"name,omitempty"`
	File string          `json:"file,omitempty"`
	Load json.RawMessage `json:"load,omitempty"`

	// Job fields. Trace is the job's W3C trace id, carried on job-admit
	// (and echoed on job-done) so a recovered or quarantined job keeps
	// its request correlation across the crash.
	ID        string                  `json:"id,omitempty"`
	Tenant    string                  `json:"tenant,omitempty"`
	Trace     string                  `json:"trace,omitempty"`
	Request   json.RawMessage         `json:"req,omitempty"`
	Attempt   int                     `json:"attempt,omitempty"`
	Artifacts map[string]ArtifactMeta `json:"artifacts,omitempty"`
	Summary   json.RawMessage         `json:"summary,omitempty"`
	Code      int                     `json:"code,omitempty"`
	Error     string                  `json:"error,omitempty"`
	Permanent bool                    `json:"permanent,omitempty"`
}

// Journal is the append-only write-ahead log. Append is safe for
// concurrent use; each record is written in one syscall and fsynced
// before Append returns, so an acknowledged record survives any
// subsequent crash.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenJournal opens (creating if absent) the journal at path for
// appending.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append serialises rec, writes it as one line and fsyncs. The record is
// durable when Append returns nil; on error the caller must assume the
// record may or may not survive a crash (a torn tail is skipped by
// ReadJournal either way).
func (j *Journal) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshaling journal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	faultinject.Fire(faultinject.DiskWrite)
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("appending journal record: %w", err)
	}
	faultinject.Fire(faultinject.DiskFsync)
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("syncing journal: %w", err)
	}
	return nil
}

// Close closes the journal file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal parses every record in the journal at path. A missing file
// is an empty journal. A torn final line — the signature of a crash
// mid-append — is skipped: an unacknowledged record never happened. A
// malformed record anywhere else is corruption and an error.
func ReadJournal(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("reading journal: %w", err)
	}
	var recs []Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	terminated := len(data) > 0 && data[len(data)-1] == '\n'
	var lines [][]byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scanning journal: %w", err)
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 && !terminated {
				break // torn tail from a crash mid-append
			}
			return nil, fmt.Errorf("journal record %d corrupt: %w", i+1, err)
		}
		if i == len(lines)-1 && !terminated {
			// A complete JSON object without its newline: the crash hit
			// between the payload and the terminator. The record was
			// never acknowledged, so drop it for determinism — replay
			// must not depend on how far a torn write got.
			break
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// StateDirLayout creates the state directory skeleton (root, relations/,
// artifacts/) and returns the journal path within it.
func StateDirLayout(root string) (journalPath string, err error) {
	for _, dir := range []string{root, filepath.Join(root, RelationsDir), filepath.Join(root, ArtifactsDir)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", fmt.Errorf("creating state dir: %w", err)
		}
	}
	return filepath.Join(root, "journal.jsonl"), nil
}

// Subdirectory names within a state dir.
const (
	RelationsDir = "relations"
	ArtifactsDir = "artifacts"
)
