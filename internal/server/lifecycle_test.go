package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"comparenb/internal/durable"
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

// TestDroppedRelationCubesLeaveCache drops a relation while a job over
// it is mid-pipeline. The drop evicts the relation's cubes, but the job
// keeps building; once it settles, none of its cubes may stay in the
// shared cache, where no request could name them again.
func TestDroppedRelationCubesLeaveCache(t *testing.T) {
	csv := writeTinyCSV(t, 5, 2048)
	s, base, _, _ := bootServer(t, Options{MaxConcurrent: 1})
	loadRelation(t, base, "tiny", csv)
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
	if st := s.Cache().Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("shared cache after the job settled: %d entries, %d bytes; want both 0",
			st.Entries, st.Bytes)
	}
}
