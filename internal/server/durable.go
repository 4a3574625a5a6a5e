package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path"
	"strconv"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/governor"
	"comparenb/internal/pipeline"
	"comparenb/internal/table"
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

// persistJobArtifacts writes every rendered artifact through the atomic
// store and returns the fingerprints the job-done record carries. The
// slice order is pipeline.ArtifactKeys order — deterministic, so the
// n-th DiskRename of a job always lands on the same format.
func (s *Server) persistJobArtifacts(jobID string, arts []pipeline.Artifact) (map[string]durable.ArtifactMeta, error) {
	if s.store == nil {
		return nil, nil
	}
	metas := make(map[string]durable.ArtifactMeta, len(arts))
	for _, a := range arts {
		meta, err := s.store.WriteFile(artifactPath(jobID, a.Key), a.Data)
		if err != nil {
			return nil, fmt.Errorf("persisting %s/%s: %w", jobID, a.Key, err)
		}
		metas[a.Key] = meta
	}
	return metas, nil
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
	data, err := s.store.ReadFile(ss.File)
	if err != nil {
		s.cJournalErr.Inc()
		return
	}
	var lr loadRequest
	if len(ss.Load) > 0 {
		if err := json.Unmarshal(ss.Load, &lr); err != nil {
			s.cJournalErr.Inc()
			return
		}
	}
	rel, rep, err := table.FromCSV(bytes.NewReader(data), table.CSVOptions{
		Name:                      ss.Name,
		ForceCategorical:          lr.ForceCategorical,
		ForceNumeric:              lr.ForceNumeric,
		Drop:                      lr.Drop,
		MaxCategoricalCardinality: lr.MaxCategoricalCardinality,
		MaxRows:                   s.opts.MaxRows,
	})
	if err != nil {
		s.cJournalErr.Inc()
		return
	}
	sess := &session{name: ss.Name, rel: rel, report: rep, source: "recovered:" + ss.File, loaded: time.Now()}
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

	if js.Terminal == durable.RecJobDone {
		if s.restoreDoneJob(js, req) {
			s.cRecoveredDone.Inc()
			return
		}
		// The journal says done but the stored artifacts fail hash
		// verification (or are gone): never serve near-right bytes.
		// Treat the job as interrupted and fall through to re-run it.
		s.cVerifyFail.Inc()
	}

	switch js.Terminal {
	case durable.RecJobFailed:
		state := stateFailed
		if js.Permanent {
			state = stateFailedPermanent
		}
		j := recoveredJob(js, req, state)
		j.failCode = js.Code
		j.errMsg = js.Error
		j.publish("error", errorEvent{Error: js.Error, Code: js.Code})
		s.registerRecovered(j)
		return
	case durable.RecJobCancelled:
		j := recoveredJob(js, req, stateCancelled)
		j.errMsg = "cancelled (recovered from journal)"
		j.publish("state", stateEvent{State: stateCancelled})
		s.registerRecovered(j)
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
	cfg, err := buildConfig(req, s.opts)
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
	s.jobs[js.ID] = j
	s.queue = append(s.queue, j)
	s.tenantLocked(js.Tenant).queued++
	s.gQueued.Set(int64(len(s.queue)))
	s.mu.Unlock()
	if delay > 0 {
		// Wake a worker once the backoff elapses; dequeue skips the job
		// until then.
		time.AfterFunc(delay, s.poke)
	}
	s.cRecoveredRequeued.Inc()
}

// restoreDoneJob rebuilds a completed job from its stored artifacts,
// verifying every file against the journaled fingerprint. Returns false
// when any artifact fails verification.
func (s *Server) restoreDoneJob(js *durable.JobState, req jobRequest) bool {
	arts := make(map[string]artifact, len(js.Artifacts))
	for _, key := range pipeline.ArtifactKeys() {
		meta, ok := js.Artifacts[key]
		if !ok {
			return false
		}
		data, err := s.store.ReadVerified(artifactPath(js.ID, key), meta)
		if err != nil {
			return false
		}
		ct, ok := pipeline.ArtifactContentType(key)
		if !ok {
			return false
		}
		arts[key] = artifact{contentType: ct, data: data}
	}
	if len(js.Artifacts) != len(arts) {
		// Unknown formats in the journal: a newer server wrote this
		// state dir; refuse rather than serve a subset.
		return false
	}
	var sum jobSummary
	if len(js.Summary) > 0 {
		if err := json.Unmarshal(js.Summary, &sum); err != nil {
			return false
		}
	}
	j := recoveredJob(js, req, stateDone)
	j.artifacts = arts
	j.summary = &sum
	j.publish("done", sum)
	s.registerRecovered(j)
	return true
}

// recoveredJob builds a job in a recovered terminal state. The caller
// finishes populating it, logs its terminal event, and only then makes
// it visible with registerRecovered — jobs must be complete before HTTP
// handlers can see them.
func recoveredJob(js *durable.JobState, req jobRequest, state string) *job {
	now := time.Now()
	return &job{
		id:       js.ID,
		tenant:   js.Tenant,
		relation: req.Relation,
		admit:    governor.Degrade,
		created:  now,
		trace:    js.Trace,
		state:    state,
		attempt:  js.Attempts,
		finished: now,
	}
}

// registerRecovered makes a fully-built recovered job visible.
func (s *Server) registerRecovered(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.tenantLocked(j.tenant)
	s.mu.Unlock()
}

// quarantineJob parks an unrecoverable job as failed_permanent: the
// terminal record is journaled (so the next boot does not retry), any
// partial artifacts are removed, and the reason is served from the
// result endpoint. Quarantine is loud, never a silent drop.
func (s *Server) quarantineJob(js *durable.JobState, req jobRequest, reason string) {
	s.journalAppend(durable.Record{
		Type:      durable.RecJobFailed,
		ID:        js.ID,
		Trace:     js.Trace,
		Code:      http.StatusInternalServerError,
		Error:     reason,
		Permanent: true,
	})
	if s.store != nil {
		_ = s.store.Remove(path.Join(durable.ArtifactsDir, js.ID)) // best-effort cleanup
	}
	j := recoveredJob(js, req, stateFailedPermanent)
	j.failCode = http.StatusInternalServerError
	j.errMsg = reason
	j.publish("error", errorEvent{Error: reason, Code: http.StatusInternalServerError})
	s.registerRecovered(j)
	s.cQuarantined.Inc()
}
