package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/table"
)

// terminalEvents counts the terminal events in j's event log (done,
// error, or a state event naming a terminal state) and reports whether
// the last event is one of them.
func terminalEvents(j *job) (n int, last bool) {
	evs, _, _ := j.eventsSince(0)
	for i, ev := range evs {
		term := ev.name == "done" || ev.name == "error"
		if ev.name == "state" {
			var se stateEvent
			term = json.Unmarshal([]byte(ev.data), &se) == nil && terminalState(se.State)
		}
		if term {
			n++
			last = i == len(evs)-1
		}
	}
	return n, last
}

// eventNames lists j's event log, for failure messages.
func eventNames(j *job) string {
	evs, _, _ := j.eventsSince(0)
	names := make([]string, len(evs))
	for i, ev := range evs {
		names[i] = ev.name + " " + ev.data
	}
	return strings.Join(names, ", ")
}

// serve runs one request through s's handler without a network.
func serve(s *Server, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// submitDirect admits one job through the handler and returns it.
func submitDirect(t *testing.T, s *Server, req jobRequest) *job {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(s, http.MethodPost, "/v1/notebooks", string(body))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("admission: status %d: %s", rec.Code, rec.Body)
	}
	var resp admitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return s.job(resp.JobID)
}

// TestCancelClaimedJobSettlesOnce cancels a job in the gap between a
// worker claiming it from the queue and the worker starting it. The
// DELETE and the worker must not both settle the job: one terminal
// event, last in the log, no running event after it, one counter
// increment and one journal record.
func TestCancelClaimedJobSettlesOnce(t *testing.T) {
	csv := writeTinyCSV(t, 3, 50)
	s, err := New(Options{MaxConcurrent: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// No Run: this test is the worker. Replay the (empty) journal so
	// admission is open.
	if err := s.recoverDurable(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.journal.Close() }()
	if err := s.LoadRelationFile("tiny", csv); err != nil {
		t.Fatal(err)
	}
	j := submitDirect(t, s, jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: 3})

	if got := s.dequeue(); got != j {
		t.Fatalf("dequeue returned %v, want the submitted job", got)
	}
	if rec := serve(s, http.MethodDelete, "/v1/jobs/"+j.id, ""); rec.Code != http.StatusAccepted {
		t.Fatalf("cancelling the claimed job: status %d: %s", rec.Code, rec.Body)
	}
	s.runJob(context.Background(), j)

	if n, last := terminalEvents(j); n != 1 || !last {
		t.Errorf("event log has %d terminal events (last event terminal: %v), want exactly one, last: %s",
			n, last, eventNames(j))
	}
	if got := s.reg.Counter("server_jobs_cancelled").Value(); got != 1 {
		t.Errorf("server_jobs_cancelled = %d, want 1", got)
	}
	journalPath, err := durable.StateDirLayout(s.opts.StateDir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, rec := range recs {
		if rec.ID == j.id && rec.Type == durable.RecJobCancelled {
			cancelled++
		}
	}
	if cancelled != 1 {
		t.Errorf("journal holds %d job-cancelled records for %s, want 1", cancelled, j.id)
	}
}

// TestCancelRacesDrain races a DELETE against the drain for the same
// queued jobs: whichever wins, each job settles once — one terminal
// state, one terminal event and one counter increment.
func TestCancelRacesDrain(t *testing.T) {
	csv := writeTinyCSV(t, 3, 50)
	const jobs = 3
	for i := 0; i < 300; i++ {
		s, err := New(Options{MaxConcurrent: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadRelationFile("tiny", csv); err != nil {
			t.Fatal(err)
		}
		var js []*job
		for k := 0; k < jobs; k++ {
			js = append(js, submitDirect(t, s, jobRequest{Relation: "tiny", Queries: 3, Perms: 40, Seed: int64(k)}))
		}
		var wg sync.WaitGroup
		wg.Add(1 + jobs)
		go func() {
			defer wg.Done()
			s.beginDrain()
		}()
		for _, j := range js {
			go func() {
				defer wg.Done()
				serve(s, http.MethodDelete, "/v1/jobs/"+j.id, "")
			}()
		}
		wg.Wait()

		for _, j := range js {
			j.mu.Lock()
			state := j.state
			j.mu.Unlock()
			if state != stateCancelled && state != stateFailed {
				t.Fatalf("iteration %d, %s: state %s, want cancelled or failed", i, j.id, state)
			}
			if n, last := terminalEvents(j); n != 1 || !last {
				t.Fatalf("iteration %d, %s: %d terminal events (last event terminal: %v), want exactly one, last: %s",
					i, j.id, n, last, eventNames(j))
			}
		}
		settled := s.reg.Counter("server_jobs_cancelled").Value() + s.reg.Counter("server_jobs_failed").Value()
		if settled != jobs {
			t.Fatalf("iteration %d: cancelled + failed counters = %d, want %d", i, settled, jobs)
		}
	}
}

// watchCollection puts a finalizer on the *table.Relation of session
// name and returns a func that forces garbage collection until the
// finalizer has run, reporting false if it has not after 5 s.
func watchCollection(t *testing.T, s *Server, name string) (collected func() bool) {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[name]
	s.mu.Unlock()
	if sess == nil {
		t.Fatalf("relation %q not loaded", name)
	}
	finalized := make(chan struct{})
	runtime.SetFinalizer(sess.rel, func(*table.Relation) { close(finalized) })
	return func() bool {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			runtime.GC()
			select {
			case <-finalized:
				return true
			default:
			}
			if time.Now().After(deadline) {
				return false
			}
		}
	}
}

// TestDroppedRelationCollected is fresh-upload's order on a durable
// server: a job over an uploaded relation finishes, then the relation is
// dropped. The finished job must not pin it, so it becomes garbage.
func TestDroppedRelationCollected(t *testing.T) {
	csv := writeTinyCSV(t, 5, 2048)
	s, base, shutdown := startDurableServer(t, t.TempDir(), Options{MaxConcurrent: 1})
	defer shutdown()
	loadRelation(t, base, "tiny", csv)
	collected := watchCollection(t, s, "tiny")

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 5})
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job finished %s (%s), want done", v.State, v.Error)
	}
	if status, body := doDelete(t, base+"/v1/relations/tiny"); status != http.StatusOK {
		t.Fatalf("dropping the relation: status %d: %s", status, body)
	}
	if !collected() {
		t.Error("relation still reachable 5 s after its job finished and it was dropped")
	}
	mustGet(t, base+"/v1/jobs/"+id+"/result?format=ipynb")
}

// TestDroppedRelationCubesLeaveCache drops a relation while a job over
// it is mid-pipeline. The drop evicts the relation's cubes, but the job
// keeps building; once it settles, none of its cubes may stay in the
// shared cache, where no request could name them again, and the
// relation itself becomes garbage.
func TestDroppedRelationCubesLeaveCache(t *testing.T) {
	csv := writeTinyCSV(t, 5, 2048)
	s, base, _, _ := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
	collected := watchCollection(t, s, "tiny")
	started, release := blockStats(t)

	id := submitJob(t, base, jobRequest{Relation: "tiny", Queries: 4, Perms: 100, Seed: 5})
	<-started
	if status, body := doDelete(t, base+"/v1/relations/tiny"); status != http.StatusOK {
		t.Fatalf("dropping the relation: status %d: %s", status, body)
	}
	release()
	if v := waitJob(t, base, id); v.State != stateDone {
		t.Fatalf("job over a dropped relation finished %s (%s), want done", v.State, v.Error)
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("shared cache after the job settled: %d entries, %d bytes; want both 0",
			st.Entries, st.Bytes)
	}
	if !collected() {
		t.Error("relation dropped mid-job still reachable 5 s after the job settled")
	}
}

// TestDispatchFollowsAdmissionOrder interleaves submissions from several
// tenants and plays the workers itself: dequeue hands jobs out in
// admission order whatever their tenant, and admission answers full only
// while a worker is free and the queue is empty.
func TestDispatchFollowsAdmissionOrder(t *testing.T) {
	csv := writeTinyCSV(t, 3, 50)
	s, err := New(Options{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRelationFile("tiny", csv); err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	submit := func(tenant, wantAdmit string) *job {
		t.Helper()
		seed++
		j := submitDirect(t, s, jobRequest{Relation: "tiny", Tenant: tenant, Queries: 3, Perms: 40, Seed: seed})
		if got := j.admit.String(); got != wantAdmit {
			t.Fatalf("job %s (tenant %s, %d running, %d queued): admit %s, want %s",
				j.id, tenant, s.runningN, len(s.queue), got, wantAdmit)
		}
		return j
	}
	dequeue := func(want *job) {
		t.Helper()
		if got := s.dequeue(); got != want {
			t.Fatalf("dequeue returned %v, want %s", got, want.id)
		}
	}

	a1 := submit("a", "full") // both workers free, queue empty
	b1 := submit("b", "degrade")
	a2 := submit("a", "degrade")
	dequeue(a1)
	dequeue(b1)
	c1 := submit("c", "degrade") // both workers busy
	s.release()
	dequeue(a2)
	s.release()
	dequeue(c1)
	b2 := submit("b", "degrade") // queue empty, but no worker free
	s.release()
	c2 := submit("c", "degrade") // a worker is free, but b2 waits
	dequeue(b2)
	s.release()
	dequeue(c2)
	if j := s.dequeue(); j != nil {
		t.Fatalf("dequeue on an empty queue returned %s", j.id)
	}
	s.release()
	submit("a", "full") // one worker free again, queue empty
}

// TestJobLogAndGlobalSeries runs jobs under two tenants on a durable
// daemon whose logger keeps every level. Each started job leaves one job
// record, and the requests around the jobs leave none; /metrics carries
// no per-tenant series, and its global series count every job. A job's
// status and its journaled admission keep its tenant's name.
func TestJobLogAndGlobalSeries(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	stateDir := t.TempDir()
	_, base, shutdown := startDurableServer(t, stateDir, Options{MaxConcurrent: 1, Logger: logger})
	waitReady(t, base)
	loadRelation(t, base, "tiny", writeTinyCSV(t, 3, 50))

	tenants := map[string]string{} // job id → tenant
	for i, tenant := range []string{"acme", "globex", "acme", "globex"} {
		id := submitJob(t, base, jobRequest{Relation: "tiny", Tenant: tenant, Queries: 3, Perms: 40, Seed: int64(i)})
		tenants[id] = tenant
	}
	traces := map[string]string{} // job id → trace id
	for id, tenant := range tenants {
		v := waitJob(t, base, id)
		if v.State != stateDone || v.Tenant != tenant {
			t.Errorf("job %s: state %s tenant %q, want done under %q", id, v.State, v.Tenant, tenant)
		}
		traces[id] = v.TraceID
		mustGet(t, base+"/v1/jobs/"+id+"/events")
	}
	metrics := string(mustGet(t, base+"/metrics"))
	for _, banned := range []string{`tenant="`, "server_tenant_"} {
		if strings.Contains(metrics, banned) {
			t.Errorf("/metrics carries %q", banned)
		}
	}
	for _, want := range []string{
		"comparenb_server_jobs_done_total 4\n",
		"comparenb_server_job_e2e_seconds_count 4\n",
		"comparenb_server_job_queue_wait_seconds_count 4\n",
		"comparenb_server_job_wall_seconds_count 4\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	shutdown()

	logged := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg     string  `json:"msg"`
			JobID   string  `json:"job_id"`
			Tenant  string  `json:"tenant"`
			State   string  `json:"state"`
			TraceID string  `json:"trace_id"`
			Attempt float64 `json:"attempt"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Msg != "job" {
			t.Errorf("log record other than a job record: %s", line)
			continue
		}
		logged[rec.JobID]++
		if rec.Tenant != tenants[rec.JobID] || rec.State != stateDone || rec.TraceID != traces[rec.JobID] || rec.Attempt != 1 {
			t.Errorf("job record %s, want tenant %q, state done, trace_id %s, attempt 1",
				line, tenants[rec.JobID], traces[rec.JobID])
		}
	}
	journalPath, err := durable.StateDirLayout(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := durable.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	admitted := map[string]string{}
	for _, rec := range recs {
		if rec.Type == durable.RecJobAdmit {
			admitted[rec.ID] = rec.Tenant
		}
	}
	for id, tenant := range tenants {
		if logged[id] != 1 {
			t.Errorf("job %s has %d job records, want 1", id, logged[id])
		}
		if admitted[id] != tenant {
			t.Errorf("journaled admission of %s names tenant %q, want %q", id, admitted[id], tenant)
		}
	}
}
