package server

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"comparenb/internal/faultinject"
)

// The crash suite kills a real server process (SIGKILL, no cleanup) at a
// chosen durability fault site mid-run, then reopens the state dir and
// asserts the recovery contract: every job the journal acknowledged is
// either served byte-identical to a one-shot run or re-run to success,
// interrupted work is never silently dropped, and no partial artifact is
// ever visible.
//
// The child is this test binary re-executed with -test.run targeting
// TestCrashServerHelper and the scenario in environment variables — the
// standard Go idiom for tests that must die for real.

// TestCrashServerHelper is the process that gets killed. It is a no-op
// unless COMPARENB_CRASH_HELPER=1. It boots a durable server on the
// state dir from the environment, loads a relation, runs one job to
// completion, then arms a SIGKILL at the requested fault site and count
// and submits a second job. With MaxConcurrent=1 and sequential
// submission the Disk* firing order is deterministic, so the kill lands
// on the same syscall every run.
func TestCrashServerHelper(t *testing.T) {
	if os.Getenv("COMPARENB_CRASH_HELPER") != "1" {
		t.Skip("crash helper: only runs re-executed by the crash suite")
	}
	stateDir := os.Getenv("CRASH_STATE_DIR")
	csv := os.Getenv("CRASH_CSV")
	site := os.Getenv("CRASH_SITE")
	n, err := strconv.ParseUint(os.Getenv("CRASH_N"), 10, 64)
	if err != nil {
		t.Fatalf("CRASH_N: %v", err)
	}

	_, base, _ := startDurableServer(t, stateDir, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
	waitReady(t, base)

	req := crashJobRequest()
	id1 := submitJob(t, base, req)
	if v := waitJob(t, base, id1); v.State != stateDone {
		t.Fatalf("job 1 finished %s (%s), want done before the crash", v.State, v.Error)
	}

	// Armed only now, so the relation load and job 1 are fully durable
	// and the counted firings start at the second submission.
	faultinject.Set(site, faultinject.OnCall(n, func() {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL) // the crash under test
	}))

	id2 := submitJob(t, base, req)
	waitJob(t, base, id2)
	t.Fatalf("helper survived: fault at %s #%d never fired", site, n)
}

// crashJobRequest is the workload both the helper and the parent's
// one-shot reference use — identical bytes are the acceptance bar.
func crashJobRequest() jobRequest {
	return jobRequest{Relation: "tiny", Queries: 4, Perms: 40, Seed: 21}
}

// runCrashHelper re-executes the test binary as the crash helper and
// asserts it died by SIGKILL (not by finishing, not by a test failure).
func runCrashHelper(t *testing.T, stateDir, csv, site string, n uint64) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashServerHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"COMPARENB_CRASH_HELPER=1",
		"CRASH_STATE_DIR="+stateDir,
		"CRASH_CSV="+csv,
		"CRASH_SITE="+site,
		"CRASH_N="+strconv.FormatUint(n, 10),
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("crash helper exited cleanly; fault never fired:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !asExitError(err, &exitErr) {
		t.Fatalf("crash helper: %v\n%s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash helper exited %v, want death by SIGKILL:\n%s", err, out)
	}
}

// asExitError is errors.As without importing errors twice in tests.
func asExitError(err error, target **exec.ExitError) bool {
	if e, ok := err.(*exec.ExitError); ok {
		*target = e
		return true
	}
	return false
}

// TestCrashRecoveryAtFaultSites is the parent: for each durability fault
// site, crash a real server mid-job and verify the restart makes every
// acknowledged job whole.
//
// Firing counts are derived from the deterministic sequence after the
// hook is armed (relation + job 1 already durable, MaxConcurrent=1):
// admission journal append, start append, then per artifact
// write/fsync/rename/dir-fsync ×6, then the done append. So:
//
//	DiskWrite:  #1 admit, #2 start, #3–8 artifact writes, #9 done
//	DiskFsync:  #1 admit, #2 start, #3–14 artifact file+dir syncs, #15 done
//	DiskRename: #1–6 artifact renames
//	ServerAdmit fires once per admission attempt — #1 is job 2's.
func TestCrashRecoveryAtFaultSites(t *testing.T) {
	cases := []struct {
		name string
		site string
		n    uint64
		// job2Admitted: false when the kill lands before job 2's admit
		// record became durable — the job must then not exist at all.
		job2Admitted bool
	}{
		{"admit", faultinject.ServerAdmit, 1, false},
		{"journal-write", faultinject.DiskWrite, 5, true}, // mid artifact persist
		{"fsync", faultinject.DiskFsync, 8, true},         // mid artifact persist
		{"rename", faultinject.DiskRename, 3, true},       // between rename 2 and 3
		{"done-record", faultinject.DiskWrite, 9, true},   // artifacts on disk, done record torn
		{"start-record", faultinject.DiskWrite, 2, true},  // admitted, never started
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stateDir := t.TempDir()
			csv := writeTinyCSV(t, 21, 60)
			runCrashHelper(t, stateDir, csv, tc.site, tc.n)

			wantIpynb, _, _ := oneShot(t, csv, crashJobRequest())

			s, err := New(Options{StateDir: stateDir, MaxConcurrent: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Nothing half-renamed may survive the restart sweep, which New
			// runs as it opens the store. Checked before Run starts the
			// workers: job 2's re-run then writes temp files of its own.
			assertNoTempFiles(t, stateDir)
			base, shutdown := serveTestServer(t, s)
			defer shutdown()
			waitReady(t, base)

			var jobs []jobStatusView
			if err := json.Unmarshal(mustGet(t, base+"/v1/jobs"), &jobs); err != nil {
				t.Fatal(err)
			}
			wantJobs := 2
			if !tc.job2Admitted {
				wantJobs = 1
			}
			if len(jobs) != wantJobs {
				t.Fatalf("recovered %d jobs %+v, want %d", len(jobs), jobs, wantJobs)
			}

			// Job 1 completed before the crash: it must be served from
			// disk (not re-run) and byte-identical to the one-shot bytes.
			if v := waitJob(t, base, "j000001"); v.State != stateDone || v.Attempts != 1 {
				t.Fatalf("job 1 recovered as %s with %d attempts, want done from disk", v.State, v.Attempts)
			}
			got1 := mustGet(t, base+"/v1/jobs/j000001/result?format=ipynb")
			if !bytes.Equal(got1, wantIpynb) {
				t.Error("job 1's recovered notebook differs from the one-shot bytes")
			}
			if s.cRecoveredDone.Value() != 1 {
				t.Errorf("server_recovered_done = %d, want 1", s.cRecoveredDone.Value())
			}

			if !tc.job2Admitted {
				return
			}
			// Job 2 was interrupted: the restart re-runs it to the same
			// bytes (attempt 2 when the crash hit mid-run, attempt 1 when
			// it died still queued).
			v2 := waitJob(t, base, "j000002")
			if v2.State != stateDone {
				t.Fatalf("interrupted job 2 finished %s (%s), want re-run to done", v2.State, v2.Error)
			}
			got2 := mustGet(t, base+"/v1/jobs/j000002/result?format=ipynb")
			if !bytes.Equal(got2, wantIpynb) {
				t.Error("job 2's re-run notebook differs from the one-shot bytes")
			}
			if s.cRecoveredRequeued.Value() != 1 {
				t.Errorf("server_recovered_requeued = %d, want 1", s.cRecoveredRequeued.Value())
			}
		})
	}
}

// TestCrashThenQuarantine: the same crash state reopened with an
// exhausted retry budget must quarantine the interrupted job — visibly,
// with a recorded reason — and the quarantine must stick across a
// further restart with a bigger budget.
func TestCrashThenQuarantine(t *testing.T) {
	stateDir := t.TempDir()
	csv := writeTinyCSV(t, 21, 60)
	// Kill between artifact renames: job 2 crashed during attempt 1.
	runCrashHelper(t, stateDir, csv, faultinject.DiskRename, 3)

	s, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, MaxAttempts: 1})
	waitReady(t, base)
	v := waitJob(t, base, "j000002")
	if v.State != stateFailedPermanent {
		t.Fatalf("job 2 with MaxAttempts=1 recovered as %s, want failed_permanent", v.State)
	}
	if !strings.Contains(v.Error, "attempt 1/1") {
		t.Errorf("quarantine reason %q does not name the exhausted attempts", v.Error)
	}
	if s.cQuarantined.Value() != 1 {
		t.Errorf("server_jobs_quarantined = %d, want 1", s.cQuarantined.Value())
	}
	// Its partial artifacts are gone from the store.
	if _, err := os.Stat(filepath.Join(stateDir, "artifacts", "j000002")); !os.IsNotExist(err) {
		t.Errorf("quarantined job's artifact dir survived (err %v)", err)
	}
	// Job 1 is untouched by the neighbour's quarantine.
	if v := waitJob(t, base, "j000001"); v.State != stateDone {
		t.Fatalf("job 1 is %s, want done", v.State)
	}
	shutdown()

	_, base2, shutdown2 := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, MaxAttempts: 5})
	defer shutdown2()
	waitReady(t, base2)
	if v := waitJob(t, base2, "j000002"); v.State != stateFailedPermanent {
		t.Fatalf("quarantine did not survive restart: %s", v.State)
	}
}

// assertNoTempFiles walks the state dir checking the store's crash sweep
// left no .tmp files behind.
func assertNoTempFiles(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			t.Errorf("temp file %s survived recovery", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
