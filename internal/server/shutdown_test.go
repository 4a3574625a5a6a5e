package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"comparenb/internal/faultinject"
	"comparenb/internal/testutil"
)

// bootServer starts a Server whose Run context the test cancels itself —
// the shape every drain test needs. Cleanup closes the HTTP front end,
// cancels Run, and joins it; awaitRun lets the test observe Run's return
// earlier (it is safe to call more than once).
func bootServer(t *testing.T, opts Options) (s *Server, base string, cancel func(), awaitRun func() error) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, c := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	hs := httptest.NewServer(s.Handler())
	var once sync.Once
	var runErr error
	awaitRun = func() error {
		once.Do(func() { runErr = <-runDone })
		return runErr
	}
	t.Cleanup(func() {
		hs.Close()
		c()
		_ = awaitRun()
	})
	return s, hs.URL, c, awaitRun
}

// blockStats parks the first job that reaches its stats phase: started
// closes when the job is provably mid-pipeline, and every StatsPermBlock
// firing then blocks until release is called. release is idempotent and
// also registered as cleanup, so a failing test cannot wedge the worker.
func blockStats(t *testing.T) (started chan struct{}, release func()) {
	t.Helper()
	started = make(chan struct{})
	gate := make(chan struct{})
	var startOnce, relOnce sync.Once
	release = func() { relOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	t.Cleanup(faultinject.Set(faultinject.StatsPermBlock, func(string) {
		startOnce.Do(func() { close(started) })
		<-gate
	}))
	return started, release
}

// holdSite blocks one firing of a faultinject site until release is
// called; entered closes when the handler is inside the held region.
func holdSite(t *testing.T, site string) (entered chan struct{}, release func()) {
	t.Helper()
	entered = make(chan struct{})
	gate := make(chan struct{})
	var entOnce, relOnce sync.Once
	release = func() { relOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	t.Cleanup(faultinject.Set(site, func(string) {
		entOnce.Do(func() { close(entered) })
		<-gate
	}))
	return entered, release
}

// waitDraining polls until the server has observed its Run context's
// cancellation and begun refusing work.
func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never began draining")
}

// postStatus is postJSON for non-test goroutines: no t, errors returned.
func postStatus(url string, v any) (int, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	_ = resp.Body.Close()
	return resp.StatusCode, nil
}

func doDelete(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestServerDrainSemantics is the graceful-shutdown contract: once the
// Run context is cancelled, new admissions and relation loads are
// refused with 503, queued jobs fail with clean 503s without ever
// running, and the in-flight job finishes and keeps its artifacts.
func TestServerDrainSemantics(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() { testutil.WaitGoroutinesSettle(t, before) })

	csvPath := writeTinyCSV(t, 1, 400)
	s, base, cancel, awaitRun := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csvPath)
	started, release := blockStats(t)

	running := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	<-started // the single worker is now parked mid-pipeline
	queued1 := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 2})
	queued2 := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 3})

	cancel()
	waitDraining(t, s)

	if status, body := postJSON(t, base+"/v1/notebooks",
		jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 4}); status != http.StatusServiceUnavailable {
		t.Errorf("admission during drain: status %d (%s), want 503", status, body)
	}
	late, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = late.Close() }()
	if status, _, err := upload(base, "late", late); err != nil || status != http.StatusServiceUnavailable {
		t.Errorf("relation load during drain: status %d, err %v; want 503", status, err)
	}

	for _, id := range []string{queued1, queued2} {
		v := waitJob(t, base, id)
		if v.State != stateFailed || !strings.Contains(v.Error, "shutting down") {
			t.Errorf("queued job %s after drain: state %s (%s), want failed by shutdown", id, v.State, v.Error)
		}
		if status, _ := httpGet(t, base+"/v1/jobs/"+id+"/result"); status != http.StatusServiceUnavailable {
			t.Errorf("queued job %s result after drain: status %d, want 503", id, status)
		}
	}

	// The running job was admitted before the drain: it must finish.
	release()
	if err := awaitRun(); err != nil {
		t.Fatalf("Run returned %v after drain", err)
	}
	if v := waitJob(t, base, running); v.State != stateDone {
		t.Fatalf("in-flight job after drain: state %s (%s), want done", v.State, v.Error)
	}
	nb := mustGet(t, base+"/v1/jobs/"+running+"/result?format=ipynb")
	if !bytes.Contains(nb, []byte(`"cells"`)) {
		t.Errorf("drained job's notebook artifact looks empty (%d bytes)", len(nb))
	}
}

// TestServerAdmitRacesDrain holds an admission decision open at the
// ServerAdmit fault site while the server drains underneath it; when the
// handler resumes it must observe the drain and refuse — no job may
// sneak into a draining queue.
func TestServerAdmitRacesDrain(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 300)
	_, base, cancel, awaitRun := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csvPath)
	entered, release := holdSite(t, faultinject.ServerAdmit)

	status := make(chan int, 1)
	go func() {
		st, err := postStatus(base+"/v1/notebooks", jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
		if err != nil {
			t.Errorf("racing POST: %v", err)
		}
		status <- st
	}()
	<-entered
	cancel()
	if err := awaitRun(); err != nil { // idle workers: drain completes at once
		t.Fatalf("Run returned %v", err)
	}
	release()
	if st := <-status; st != http.StatusServiceUnavailable {
		t.Errorf("admission that raced the drain: status %d, want 503", st)
	}
}

// TestServerSessionLoadRacesDrain does the same on the load path: the
// ServerSessionLoad site fires after validation but before the CSV is
// read, and the insert re-checks the drain flag — a load that was
// in-flight when shutdown began must not register a relation.
func TestServerSessionLoadRacesDrain(t *testing.T) {
	csv, err := os.ReadFile(writeTinyCSV(t, 1, 300))
	if err != nil {
		t.Fatal(err)
	}
	_, base, cancel, awaitRun := bootServer(t, Options{MaxConcurrent: 1})
	entered, release := holdSite(t, faultinject.ServerSessionLoad)

	status := make(chan int, 1)
	go func() {
		st, _, err := upload(base, "raced", bytes.NewReader(csv))
		if err != nil {
			t.Errorf("racing load: %v", err)
		}
		status <- st
	}()
	<-entered
	cancel()
	if err := awaitRun(); err != nil {
		t.Fatalf("Run returned %v", err)
	}
	release()
	if st := <-status; st != http.StatusServiceUnavailable {
		t.Errorf("relation load that raced the drain: status %d, want 503", st)
	}
	if body := mustGet(t, base+"/v1/relations"); strings.Contains(string(body), "raced") {
		t.Errorf("raced relation was registered despite the drain: %s", body)
	}
}

// TestServerCancelMidJobNoPartialResults cancels a job that is provably
// mid-pipeline and asserts the cancellation is clean: terminal state
// cancelled, 410 from the result endpoint with no notebook bytes, and
// the SSE log recording the transition.
func TestServerCancelMidJobNoPartialResults(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	_, base, _, _ := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csvPath)
	started, release := blockStats(t)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	<-started
	if status, body := doDelete(t, base+"/v1/jobs/"+id); status != http.StatusAccepted {
		t.Fatalf("cancelling running job: status %d (%s), want 202", status, body)
	}
	release() // let the pipeline reach its next checkpoint and observe the cancel

	if v := waitJob(t, base, id); v.State != stateCancelled {
		t.Fatalf("cancelled job finished %s (%s), want cancelled", v.State, v.Error)
	}
	status, body := httpGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
	if status != http.StatusGone {
		t.Errorf("cancelled job's result: status %d, want 410", status)
	}
	if bytes.Contains(body, []byte(`"cells"`)) {
		t.Errorf("cancelled job leaked notebook bytes through the result endpoint")
	}
	if status, _ := doDelete(t, base+"/v1/jobs/"+id); status != http.StatusConflict {
		t.Errorf("cancelling a finished job: status %d, want 409", status)
	}
	if stream := string(mustGet(t, base+"/v1/jobs/"+id+"/events")); !strings.Contains(stream, `"state":"cancelled"`) {
		t.Errorf("SSE log of a cancelled job records no cancelled state:\n%s", stream)
	}
}

// TestServerCancelQueuedJob cancels a job that never left the queue: it
// must go terminal immediately, without a worker ever claiming it, while
// the job ahead of it is unaffected.
func TestServerCancelQueuedJob(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	_, base, _, _ := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csvPath)
	started, release := blockStats(t)

	running := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	<-started
	queued := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 2})

	if status, body := doDelete(t, base+"/v1/jobs/"+queued); status != http.StatusAccepted {
		t.Fatalf("cancelling queued job: status %d (%s), want 202", status, body)
	}
	// Terminal before the worker frees up — no polling grace needed.
	if v := waitJob(t, base, queued); v.State != stateCancelled {
		t.Errorf("cancelled queued job: state %s (%s), want cancelled", v.State, v.Error)
	}
	if status, _ := httpGet(t, base+"/v1/jobs/"+queued+"/result"); status != http.StatusGone {
		t.Errorf("cancelled queued job's result: status %d, want 410", status)
	}

	release()
	if v := waitJob(t, base, running); v.State != stateDone {
		t.Errorf("job ahead of the cancelled one finished %s (%s), want done", v.State, v.Error)
	}
}

// TestServerHardStopFailsRunningJob drives the second-signal path: after
// a drain begins, HardStop cancels the in-flight job's context, the job
// fails with 503, and no partial artifacts are served.
func TestServerHardStopFailsRunningJob(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	s, base, cancel, awaitRun := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csvPath)
	started, release := blockStats(t)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	<-started
	cancel()
	waitDraining(t, s)
	s.HardStop()
	release()
	if err := awaitRun(); err != nil {
		t.Fatalf("Run returned %v after hard stop", err)
	}

	v := waitJob(t, base, id)
	if v.State != stateFailed || !strings.Contains(v.Error, "shut down mid-job") {
		t.Errorf("hard-stopped job: state %s (%s), want failed mid-job", v.State, v.Error)
	}
	if status, _ := httpGet(t, base+"/v1/jobs/"+id+"/result"); status != http.StatusServiceUnavailable {
		t.Errorf("hard-stopped job's result: status %d, want 503", status)
	}
}

// TestServerDrainTimeoutHardCancels covers Run's own escalation: with a
// DrainTimeout set, a drain that cannot finish hard-cancels the running
// job by itself, without an explicit HardStop.
func TestServerDrainTimeoutHardCancels(t *testing.T) {
	csvPath := writeTinyCSV(t, 1, 400)
	_, base, cancel, awaitRun := bootServer(t, Options{MaxConcurrent: 1, DrainTimeout: 50 * time.Millisecond})
	loadRelation(t, base, "tiny", csvPath)
	started, release := blockStats(t)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 1})
	<-started
	cancel()
	// Give the 50ms drain timer a wide margin to fire while the job is
	// still parked, so the release below resumes an already-cancelled job.
	time.Sleep(400 * time.Millisecond)
	release()
	if err := awaitRun(); err != nil {
		t.Fatalf("Run returned %v after drain timeout", err)
	}
	if v := waitJob(t, base, id); v.State != stateFailed || !strings.Contains(v.Error, "shut down mid-job") {
		t.Errorf("job past the drain timeout: state %s (%s), want failed mid-job", v.State, v.Error)
	}
}
