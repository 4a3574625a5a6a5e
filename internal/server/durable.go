package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path"
	"strconv"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/governor"
	"comparenb/internal/pipeline"
)

// This file wires internal/durable into the scheduler: opening the state
// dir, journaling lifecycle transitions, and the startup replay that
// turns a journal back into sessions and jobs. Everything here is a
// no-op for in-memory servers (s.journal == nil).

// openState (called from New when StateDir is set) builds the state-dir
// layout, folds the existing journal, and opens it for appending. The
// folded state waits in s.recovered until Run applies it — preloads done
// between New and Run land in the same journal and simply shadow their
// replayed counterparts.
func (s *Server) openState() error {
	journalPath, err := durable.StateDirLayout(s.opts.StateDir)
	if err != nil {
		return err
	}
	recs, err := durable.ReadJournal(journalPath)
	if err != nil {
		return fmt.Errorf("state dir %s: %w", s.opts.StateDir, err)
	}
	st, err := durable.Replay(recs)
	if err != nil {
		return fmt.Errorf("state dir %s: %w", s.opts.StateDir, err)
	}
	s.store, err = durable.OpenStore(s.opts.StateDir)
	if err != nil {
		return err
	}
	s.journal, err = durable.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	s.recovered = st
	s.retry = durable.RetryPolicy{
		MaxAttempts: s.opts.MaxAttempts,
		Base:        s.opts.RetryBase,
	}.WithDefaults()
	// Job ids must keep climbing across restarts, or a new admission
	// would collide with a journaled job.
	for _, j := range st.Jobs {
		if n, ok := parseJobID(j.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	return nil
}

// parseJobID inverts the "j%06d" id format.
func parseJobID(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// journalAppend appends best-effort: a failed append is counted, not
// fatal. Callers on acknowledgement paths (admission, completion) use
// journalAppendStrict instead.
func (s *Server) journalAppend(rec durable.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.cJournalErr.Inc()
	}
}

// journalAppendStrict appends and reports failure, for transitions that
// must be durable before they are acknowledged.
func (s *Server) journalAppendStrict(rec durable.Record) error {
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Append(rec); err != nil {
		s.cJournalErr.Inc()
		return err
	}
	return nil
}

// artifactPath is where one artifact of one job lives in the store.
func artifactPath(jobID, format string) string {
	return path.Join(durable.ArtifactsDir, jobID, format)
}

// recoverDurable applies the state folded at New time: restore sessions,
// re-serve completed jobs from verified artifacts, re-enqueue or
// quarantine interrupted ones. Runs before the first worker starts;
// /readyz turns 200 when it returns.
func (s *Server) recoverDurable() error {
	if s.journal == nil {
		s.setReady()
		return nil
	}
	st := s.recovered
	s.recovered = nil
	if st != nil {
		for _, sess := range st.Sessions {
			s.recoverSession(sess)
		}
		for _, js := range st.Jobs {
			s.recoverJob(js)
		}
	}
	s.setReady()
	s.pokeAll()
	return nil
}

// noLoadOptions is the load field older servers journaled for a relation
// loaded without loader options, as every upload was. A record with any
// other load field is not recovered: its relation would come back typed
// differently from the one its jobs were admitted against.
const noLoadOptions = `{"name":"","path":""}`

// recoverSession reloads one journaled relation from its stored CSV.
// Failures are counted, not fatal: jobs referencing a lost relation are
// quarantined with that reason rather than blocking startup.
func (s *Server) recoverSession(ss *durable.SessionState) {
	s.mu.Lock()
	_, dup := s.sessions[ss.Name]
	s.mu.Unlock()
	if dup {
		// Preloaded again this boot (cmd/comparenbd -load runs between
		// New and Run); the live load already journaled itself.
		return
	}
	if len(ss.Load) > 0 && string(ss.Load) != noLoadOptions {
		s.cJournalErr.Inc()
		return
	}
	data, err := s.store.ReadFile(ss.File)
	if err != nil {
		s.cJournalErr.Inc()
		return
	}
	sess, err := s.parseSession(ss.Name, "recovered:"+ss.File, data)
	if err != nil {
		s.cJournalErr.Inc()
		return
	}
	s.mu.Lock()
	if _, dup := s.sessions[ss.Name]; !dup {
		s.sessions[ss.Name] = sess
		s.gSessions.Set(int64(len(s.sessions)))
	}
	s.mu.Unlock()
}

// recoverJob folds one journaled job back into the scheduler.
func (s *Server) recoverJob(js *durable.JobState) {
	var req jobRequest
	reqErr := json.Unmarshal(js.Request, &req)

	switch js.Terminal {
	case durable.RecJobDone:
		if end, ok := s.verifiedResult(js); ok {
			s.restore(js, req, stateDone, end)
			return
		}
		// The journal says done but the stored artifacts fail hash
		// verification (or are gone): never serve near-right bytes.
		// Treat the job as interrupted and fall through to re-run it.
		s.cVerifyFail.Inc()
	case durable.RecJobFailed:
		state := stateFailed
		if js.Permanent {
			state = stateFailedPermanent
		}
		s.restore(js, req, state, jobEnd{code: js.Code, msg: js.Error, replayed: true})
		return
	case durable.RecJobCancelled:
		s.restore(js, req, stateCancelled, jobEnd{msg: "cancelled (recovered from journal)", replayed: true})
		return
	}

	// Interrupted: admitted or running when the process died (or done
	// with unverifiable artifacts). Re-run under the retry policy, or
	// quarantine — never drop silently.
	if reqErr != nil {
		s.quarantineJob(js, req, fmt.Sprintf("recovery: corrupt request record: %v", reqErr))
		return
	}
	s.mu.Lock()
	sess := s.sessions[req.Relation]
	s.mu.Unlock()
	if sess == nil {
		s.quarantineJob(js, req, fmt.Sprintf("recovery: relation %q not recoverable", req.Relation))
		return
	}
	cfg, err := buildConfig(req)
	if err != nil {
		s.quarantineJob(js, req, "recovery: invalid request: "+err.Error())
		return
	}
	if s.retry.Exhausted(js.Attempts) {
		s.quarantineJob(js, req, fmt.Sprintf(
			"quarantined: interrupted during attempt %d/%d", js.Attempts, s.retry.MaxAttempts))
		return
	}

	j := newJob(js.ID, js.Tenant, req, sess.rel, cfg, governor.Degrade, js.Trace)
	j.attempt = js.Attempts
	delay := s.retry.Backoff(js.ID, js.Attempts)
	j.notBefore = time.Now().Add(delay)
	s.mu.Lock()
	s.enqueueLocked(j)
	s.mu.Unlock()
	if delay > 0 {
		// Wake a worker once the backoff elapses; dequeue skips the job
		// until then.
		time.AfterFunc(delay, s.poke)
	}
	s.cRecoveredRequeued.Inc()
}

// verifiedResult checks a done job's stored artifacts at boot, every file
// against its journaled fingerprint, and returns an end that keeps only
// the fingerprints: writeArtifact reads and verifies the bytes again on
// each request, as it does for a job done in this process. Returns false
// when any artifact fails verification, or when the journal lists a
// format this server does not render (a newer server wrote this state
// dir): refuse rather than serve a subset.
func (s *Server) verifiedResult(js *durable.JobState) (jobEnd, bool) {
	keys := pipeline.ArtifactKeys()
	if len(js.Artifacts) != len(keys) {
		return jobEnd{}, false
	}
	for _, key := range keys {
		meta, ok := js.Artifacts[key]
		if !ok {
			return jobEnd{}, false
		}
		if _, err := s.store.ReadVerified(artifactPath(js.ID, key), meta); err != nil {
			return jobEnd{}, false
		}
	}
	end := jobEnd{stored: js.Artifacts, summary: &jobSummary{}, replayed: true}
	if len(js.Summary) > 0 && json.Unmarshal(js.Summary, end.summary) != nil {
		return jobEnd{}, false
	}
	return end, true
}

// restore brings back a job whose terminal state recovery decided: it
// settles the job, then makes it visible — jobs must be complete before
// HTTP handlers can see them. Recovered jobs get no queued or trace
// events.
func (s *Server) restore(js *durable.JobState, req jobRequest, state string, end jobEnd) {
	j := &job{
		id:       js.ID,
		tenant:   js.Tenant,
		relation: req.Relation,
		admit:    governor.Degrade,
		created:  time.Now(),
		trace:    js.Trace,
		state:    stateQueued,
		attempt:  js.Attempts,
	}
	s.settle(j, stateQueued, state, end)
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

// quarantineJob parks an unrecoverable job as failed_permanent: settle
// journals the terminal record (so the next boot does not retry), any
// partial artifacts are removed, and the reason is served from the
// result endpoint. Quarantine is loud, never a silent drop.
func (s *Server) quarantineJob(js *durable.JobState, req jobRequest, reason string) {
	s.restore(js, req, stateFailedPermanent, jobEnd{code: http.StatusInternalServerError, msg: reason})
	if s.store != nil {
		_ = s.store.Remove(path.Join(durable.ArtifactsDir, js.ID)) // best-effort cleanup
	}
}
