package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/faultinject"
	"comparenb/internal/governor"
	"comparenb/internal/obs"
	"comparenb/internal/pipeline"
	"comparenb/internal/sampling"
	"comparenb/internal/table"
)

// Job states. A job is terminal in done, failed, failed_permanent or
// cancelled; artifacts are served only from done — no other state ever
// exposes partial results. failed_permanent is the quarantine state: a
// crash-interrupted job that exhausted its retry budget (or whose
// journaled request can no longer be executed) parks here with a
// recorded reason instead of being dropped or retried forever.
const (
	stateQueued          = "queued"
	stateRunning         = "running"
	stateDone            = "done"
	stateFailed          = "failed"
	stateFailedPermanent = "failed_permanent"
	stateCancelled       = "cancelled"
)

// terminalState reports whether a job in state st will never run again.
func terminalState(st string) bool {
	switch st {
	case stateDone, stateFailed, stateFailedPermanent, stateCancelled:
		return true
	}
	return false
}

// jobRequest is the POST /v1/notebooks body. Zero fields take the
// pipeline defaults (pipeline.NewConfig); the mapping lives in
// buildConfig so the e2e suite can build the exact same Config for its
// one-shot reference runs.
type jobRequest struct {
	Relation string `json:"relation"`
	// Tenant names the job's client in its status, its journaled admit
	// record and its job log line; empty means "default".
	Tenant string `json:"tenant,omitempty"`

	Queries           int      `json:"queries,omitempty"`
	EpsD              *float64 `json:"eps_d,omitempty"`
	Perms             int      `json:"perms,omitempty"`
	Alpha             float64  `json:"alpha,omitempty"`
	Seed              int64    `json:"seed,omitempty"`
	Threads           int      `json:"threads,omitempty"`
	Solver            string   `json:"solver,omitempty"`
	Sampling          string   `json:"sampling,omitempty"`
	SampleFrac        float64  `json:"sample_frac,omitempty"`
	WSC               *bool    `json:"wsc,omitempty"`
	IncludeHypotheses bool     `json:"include_hypotheses,omitempty"`
	// TimeBudgetNS is the soft per-run budget in nanoseconds (the
	// degradation ladder, not hard cancellation).
	TimeBudgetNS int64 `json:"time_budget_ns,omitempty"`
}

// buildConfig maps a request onto a pipeline.Config, starting from
// NewConfig defaults. The server later overwrites Cache, Obs and Logf —
// everything the response bytes depend on is decided here, which is what
// makes server output reproducible by a one-shot pipeline.Generate with
// the same Config.
func buildConfig(req jobRequest) (pipeline.Config, error) {
	cfg := pipeline.NewConfig()
	cfg.Name = "server"
	if req.Queries > 0 {
		cfg.EpsT = req.Queries
	}
	if req.EpsD != nil {
		cfg.EpsD = *req.EpsD
	}
	if req.Perms > 0 {
		cfg.Perms = req.Perms
	}
	if req.Alpha > 0 {
		cfg.Alpha = req.Alpha
	}
	cfg.Seed = req.Seed
	if req.Threads > 0 {
		cfg.Threads = req.Threads
	}
	var err error
	if req.Solver != "" {
		if cfg.Solver, err = pipeline.ParseSolver(req.Solver); err != nil {
			return cfg, err
		}
	}
	if req.Sampling != "" {
		if cfg.Sampling, err = sampling.ParseStrategy(req.Sampling); err != nil {
			return cfg, err
		}
	}
	if cfg.Sampling != sampling.None {
		cfg.SampleFrac = req.SampleFrac
	}
	if req.WSC != nil {
		cfg.UseWSC = *req.WSC
	}
	cfg.IncludeHypotheses = req.IncludeHypotheses
	if req.TimeBudgetNS < 0 {
		return cfg, fmt.Errorf("time_budget_ns must be non-negative, got %d", req.TimeBudgetNS)
	}
	cfg.TimeBudget = time.Duration(req.TimeBudgetNS)
	return cfg, cfg.Validate()
}

// sseEvent is one server-sent event, pre-serialised. The event log is
// the source of truth for /events: subscribers replay it from any index,
// so a slow reader can never lose events.
type sseEvent struct {
	name string
	data string // JSON object
}

// jobSummary is what a completed run left behind, for status responses
// and the terminal SSE event.
type jobSummary struct {
	Queries      int      `json:"queries"`
	Insights     int      `json:"insights"`
	Solver       string   `json:"solver"`
	Degraded     []string `json:"degraded,omitempty"`
	WallMS       int64    `json:"wall_ms"`
	CacheHits    int      `json:"cache_hits"`
	CacheRollups int      `json:"cache_rollups"`
	CacheMisses  int      `json:"cache_misses"`
}

// job is one admitted notebook-generation request. Once settled it keeps
// only what its endpoints serve: status, events, summary and, when done,
// its artifacts.
type job struct {
	id       string
	tenant   string
	relation string
	cfg      pipeline.Config
	admit    governor.Level
	created  time.Time
	trace    string // W3C trace id; immutable after construction

	// notBefore delays dequeue for recovered jobs under retry backoff.
	// It is written only before the job is published to the queue and
	// read under s.mu, so it needs no lock of its own.
	notBefore time.Time

	mu       sync.Mutex
	state    string
	settled  bool // claimed by settle: the job never starts and never settles again
	attempt  int  // execution attempts, counting across restarts
	started  time.Time
	finished time.Time
	// rel and cancelFn are what the run needs; finish clears both, so a
	// dropped relation is garbage once the last job over it settles.
	rel      *table.Relation
	cancelFn func()
	events   []sseEvent
	firstIdx int // logical index of events[0]; >0 once the log was bounded
	notify   []chan struct{}
	// A done job's artifacts: their bytes on an in-memory server, in
	// pipeline.ArtifactKeys order; on a durable one only each format's
	// journaled fingerprint, and the store holds the bytes.
	artifacts []pipeline.Artifact
	stored    map[string]durable.ArtifactMeta
	errMsg    string
	failCode  int // HTTP status explaining a failed job
	summary   *jobSummary
}

func newJob(id, tenant string, req jobRequest, rel *table.Relation, cfg pipeline.Config, admit governor.Level, trace string) *job {
	j := &job{
		id:       id,
		tenant:   tenant,
		relation: req.Relation,
		rel:      rel,
		cfg:      cfg,
		admit:    admit,
		created:  time.Now(),
		trace:    trace,
		state:    stateQueued,
	}
	j.publish("state", stateEvent{State: stateQueued})
	if trace != "" {
		j.publish("trace", traceEvent{TraceID: trace})
	}
	return j
}

type stateEvent struct {
	State string `json:"state"`
}

type traceEvent struct {
	TraceID string `json:"trace_id"`
}

type phaseEvent struct {
	Name  string  `json:"name"`
	AtMS  float64 `json:"at_ms"`
	DurMS float64 `json:"dur_ms"`
}

type logEvent struct {
	Line string `json:"line"`
}

type errorEvent struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// maxJobEvents bounds one job's SSE event log. A chatty pipeline (log
// lines, phase spans) must not grow a job's memory without limit just
// because a subscriber might still want the backlog; past the cap the
// oldest events are dropped and late subscribers get a truncation
// marker instead.
const maxJobEvents = 1024

// publish appends one event to the log and wakes every subscriber. Both
// halves are non-blocking: the log is bounded, and the per-subscriber
// notify send never waits — a slow or never-reading subscriber cannot
// stall job completion.
func (j *job) publish(name string, payload any) {
	data := eventData(payload)
	j.mu.Lock()
	subs := j.appendLocked(name, data)
	j.mu.Unlock()
	wake(subs)
}

func eventData(payload any) string {
	data, err := json.Marshal(payload)
	if err != nil {
		return `{"error":"event marshal failed"}`
	}
	return string(data)
}

// appendLocked appends one event to the bounded log and returns the
// subscribers to wake once j.mu is released. The caller holds j.mu.
func (j *job) appendLocked(name, data string) []chan struct{} {
	j.events = append(j.events, sseEvent{name: name, data: data})
	if drop := len(j.events) - maxJobEvents; drop > 0 {
		// Copy to a fresh slice so the dropped prefix is actually freed.
		j.events = append([]sseEvent(nil), j.events[drop:]...)
		j.firstIdx += drop
	}
	return append([]chan struct{}(nil), j.notify...)
}

// wake signals each subscriber without blocking.
func wake(subs []chan struct{}) {
	for _, ch := range subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers an event-log wakeup channel; the returned func
// unregisters it.
func (j *job) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.notify = append(j.notify, ch)
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		for i, c := range j.notify {
			if c == ch {
				j.notify = append(j.notify[:i:i], j.notify[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
}

// eventsSince returns the log suffix from logical index idx on, the
// effective start index (greater than idx when the bounded log has
// dropped events the subscriber never saw), and whether the job has
// reached a terminal state (so a subscriber that has drained the log
// can stop).
func (j *job) eventsSince(idx int) (evs []sseEvent, start int, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal = terminalState(j.state)
	if idx < j.firstIdx {
		idx = j.firstIdx
	}
	off := idx - j.firstIdx
	if off >= len(j.events) {
		return nil, idx, terminal
	}
	return j.events[off:len(j.events):len(j.events)], idx, terminal
}

// start is the one queued → running transition. Under j.mu it turns
// only a queued, unsettled job into running, installs its cancel func,
// counts the attempt and hands back the relation to run on; the running
// event is published only when that happened. It returns false for a job
// settled while it waited for this worker (a DELETE or the drain won the
// race).
func (j *job) start(cancel func()) (rel *table.Relation, attempt int, ok bool) {
	j.mu.Lock()
	ok = j.state == stateQueued && !j.settled
	if ok {
		j.state = stateRunning
		j.started = time.Now()
		j.cancelFn = cancel
		j.attempt++
		rel = j.rel
	}
	attempt = j.attempt
	j.mu.Unlock()
	if ok {
		j.publish("state", stateEvent{State: stateRunning})
	}
	return rel, attempt, ok
}

// cancelRun cancels a running job's pipeline; its worker then settles
// it. Returns false when the job is not running.
func (j *job) cancelRun() bool {
	j.mu.Lock()
	running, cancel := j.state == stateRunning, j.cancelFn
	j.mu.Unlock()
	if running {
		cancel()
	}
	return running
}

// jobEnd explains a terminal transition: the artifacts (bytes, or stored
// fingerprints on a durable server) and summary of a done job, the HTTP
// status (code) and message of a failed one, the message of a cancelled
// one. replayed marks a state read back from the journal, which settle
// neither journals again nor counts as a run's outcome.
type jobEnd struct {
	artifacts []pipeline.Artifact
	stored    map[string]durable.ArtifactMeta
	summary   *jobSummary
	code      int
	msg       string
	replayed  bool
}

// settle is the job's one terminal transition: it moves j from state
// from to a terminal state, at most once. A job that has left from, or
// that another settle already claimed, is left alone and settle returns
// false. Claimed, the transition
//   - journals the terminal record before the state becomes visible,
//     except for a done job (its job-done record is the commit point in
//     runJob), a replayed state, and a 503 failure: drain and shutdown
//     leave the job's entry open on purpose, so a durable server re-runs
//     it on the next boot;
//   - drops the cubes of a relation dropped while the job ran, which
//     would otherwise stay cached under a key no request can name;
//   - bumps the matching counter;
//   - publishes the state with its terminal event and releases the
//     relation.
func (s *Server) settle(j *job, from, state string, end jobEnd) bool {
	j.mu.Lock()
	claimed := j.state == from && !j.settled
	if claimed {
		j.settled = true
	}
	rel := j.rel
	j.mu.Unlock()
	if !claimed {
		return false
	}
	if !end.replayed && state != stateDone && end.code != http.StatusServiceUnavailable {
		rec := durable.Record{Type: durable.RecJobFailed, ID: j.id, Code: end.code, Error: end.msg}
		switch state {
		case stateCancelled:
			rec = durable.Record{Type: durable.RecJobCancelled, ID: j.id}
		case stateFailedPermanent:
			rec.Trace, rec.Permanent = j.trace, true
		}
		s.journalAppend(rec)
	}

	s.mu.Lock()
	sess := s.sessions[j.relation]
	s.mu.Unlock()
	if rel != nil && (sess == nil || sess.rel != rel) {
		s.cache.DropRelation(rel)
	}

	switch {
	case end.replayed:
		if state == stateDone {
			s.cRecoveredDone.Inc()
		}
	case state == stateDone:
		s.cDone.Inc()
	case state == stateCancelled:
		s.cCancelled.Inc()
	case state == stateFailedPermanent:
		s.cQuarantined.Inc()
	default:
		s.cFailed.Inc()
	}
	j.finish(state, end)
	return true
}

// finish is settle's last step: the state, its explanation and the
// terminal event (done, error, or a cancelled state event) land in one
// j.mu critical section, so a subscriber that reads a terminal state
// always finds the terminal event already logged. The same section lets
// go of the run's inputs.
func (j *job) finish(state string, end jobEnd) {
	name, payload := "state", any(stateEvent{State: state})
	switch state {
	case stateDone:
		name, payload = "done", end.summary
	case stateFailed, stateFailedPermanent:
		name, payload = "error", errorEvent{Error: end.msg, Code: end.code}
	}
	data := eventData(payload)
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.artifacts, j.stored, j.summary = end.artifacts, end.stored, end.summary
	j.failCode, j.errMsg = end.code, end.msg
	j.rel, j.cancelFn = nil, nil
	subs := j.appendLocked(name, data)
	j.mu.Unlock()
	wake(subs)
}

// runJob executes one claimed job on the calling worker goroutine: a
// fresh per-job obs registry (traced, with spans streamed to SSE), the
// daemon's shared cache, and the request's Config. Artifacts render only
// on success; the job settles once and releases its worker slot once.
//
// Durable ordering: the attempt is journaled (job-start) before the
// pipeline runs, artifacts are persisted and the job-done record fsynced
// before the job is marked done — so a crash at any point leaves either
// an open-ended journal entry (the job re-runs on the next boot) or a
// fully durable result, never an acknowledged-but-lost notebook.
func (s *Server) runJob(jobsCtx context.Context, j *job) {
	defer s.release()
	queueWait := time.Since(j.created)
	s.tQueueWait.Observe(queueWait)

	jctx, cancel := context.WithCancel(jobsCtx)
	defer cancel()
	rel, attempt, ok := j.start(cancel)
	if !ok {
		return
	}
	if attempt > 1 {
		s.cRetries.Inc()
	}
	s.journalAppend(durable.Record{Type: durable.RecJobStart, ID: j.id, Attempt: attempt})

	reg := obs.New()
	reg.EnableTracing(0)
	reg.SetTraceID(j.trace)
	reg.ObserveSpans(func(name string, start, dur time.Duration) {
		if name == "run" || strings.HasPrefix(name, "phase/") {
			j.publish("phase", phaseEvent{
				Name:  name,
				AtMS:  float64(start) / float64(time.Millisecond),
				DurMS: float64(dur) / float64(time.Millisecond),
			})
		}
	})
	var wall time.Duration
	defer func() { s.finishJob(j, reg, queueWait, wall) }()

	cfg := j.cfg
	cfg.Cache = s.cache
	cfg.Obs = reg
	cfg.Logf = func(format string, args ...any) {
		j.publish("log", logEvent{Line: fmt.Sprintf(format, args...)})
	}

	begin := time.Now()
	res, err := pipeline.GenerateContext(jctx, rel, cfg)
	wall = time.Since(begin)
	s.tWall.Observe(wall)
	if err != nil {
		reg.MarkInterrupted()
	}

	state, end := stateDone, jobEnd{}
	switch {
	case err == nil:
		if end, err = s.commit(j, res, reg, wall); err != nil {
			state, end = stateFailed, jobEnd{code: http.StatusInternalServerError, msg: err.Error()}
		}
	case errors.Is(err, context.Canceled) && jobsCtx.Err() != nil:
		// Shutdown: a 503 failure, which settle leaves unjournaled.
		state, end = stateFailed, jobEnd{code: http.StatusServiceUnavailable, msg: "server shut down mid-job"}
	case errors.Is(err, context.Canceled):
		state, end = stateCancelled, jobEnd{msg: "cancelled by client"}
	default:
		state, end = stateFailed, jobEnd{code: http.StatusInternalServerError, msg: err.Error()}
	}
	s.settle(j, stateRunning, state, end)
}

// commit is a finished run's durable commit point: render the artifacts,
// persist them, then fsync the job-done record. Any failing step fails
// the job — a done acknowledgement must imply a recoverable result. A
// durable job keeps the journaled fingerprints, not the bytes; an
// in-memory one keeps the bytes.
func (s *Server) commit(j *job, res *pipeline.Result, reg *obs.Registry, wall time.Duration) (jobEnd, error) {
	arts, err := pipeline.RenderArtifacts(res, reg)
	if err != nil {
		return jobEnd{}, fmt.Errorf("rendering artifacts: %w", err)
	}
	end := jobEnd{summary: &jobSummary{
		Queries:      len(res.Solution.Order),
		Insights:     len(res.Insights),
		Solver:       res.TAP.Solver,
		Degraded:     res.Degraded.Phases,
		WallMS:       wall.Milliseconds(),
		CacheHits:    res.Counts.CacheHits,
		CacheRollups: res.Counts.CacheRollups,
		CacheMisses:  res.Counts.CacheMisses,
	}}
	if s.journal == nil {
		end.artifacts = arts
		return end, nil
	}
	// The slice order is pipeline.ArtifactKeys order — deterministic, so
	// the n-th DiskRename of a job always lands on the same format.
	metas := make(map[string]durable.ArtifactMeta, len(arts))
	for _, a := range arts {
		meta, err := s.store.WriteFile(artifactPath(j.id, a.Key), a.Data)
		if err != nil {
			return jobEnd{}, fmt.Errorf("persisting artifacts: persisting %s/%s: %w", j.id, a.Key, err)
		}
		metas[a.Key] = meta
	}
	sumJSON, err := json.Marshal(end.summary)
	if err != nil {
		return jobEnd{}, fmt.Errorf("encoding summary: %w", err)
	}
	if err := s.journalAppendStrict(durable.Record{
		Type: durable.RecJobDone, ID: j.id, Trace: j.trace, Artifacts: metas, Summary: sumJSON,
	}); err != nil {
		return jobEnd{}, fmt.Errorf("journaling completion: %w", err)
	}
	end.stored = metas
	return end, nil
}

// finishJob is a started job's terminal accounting, run once after it
// settled: the end-to-end admit-to-done histogram (done jobs only, so
// scrape counts match completed-job totals), the server-lifetime span
// counters, and one info-level structured log record keyed by the job's
// trace id.
func (s *Server) finishJob(j *job, reg *obs.Registry, queueWait, wall time.Duration) {
	j.mu.Lock()
	state, attempt := j.state, j.attempt
	j.mu.Unlock()
	e2e := time.Since(j.created)
	if state == stateDone {
		s.tE2E.Observe(e2e)
	}
	s.cSpans.Add(int64(reg.SpanCount()))
	s.cSpansDropped.Add(reg.Dropped())

	s.log.LogAttrs(context.Background(), slog.LevelInfo, "job",
		slog.String("job_id", j.id),
		slog.String("tenant", j.tenant),
		slog.String("relation", j.relation),
		slog.String("state", state),
		slog.String("trace_id", j.trace),
		slog.Int("attempt", attempt),
		slog.Float64("queue_wait_ms", float64(queueWait)/float64(time.Millisecond)),
		slog.Float64("wall_ms", float64(wall)/float64(time.Millisecond)),
		slog.Float64("e2e_ms", float64(e2e)/float64(time.Millisecond)),
	)
}

// handleCreateJob is POST /v1/notebooks: the admission decision.
// Outcomes reuse the governor ladder — Full (a worker slot is free; runs
// immediately), Degrade (queued), Shed (429, queue full).
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	faultinject.Fire(faultinject.ServerAdmit)
	var req jobRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if len(tenant) > 64 {
		httpError(w, http.StatusBadRequest, "tenant name too long (max 64 bytes)")
		return
	}
	cfg, err := buildConfig(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	trace := traceIDFrom(r.Context())

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.ready {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is recovering; retry when /readyz reports ready")
		return
	}
	sess := s.sessions[req.Relation]
	if sess == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, fmt.Sprintf("relation %q not loaded", req.Relation))
		return
	}
	if len(s.queue) >= s.opts.QueueDepth {
		s.mu.Unlock()
		s.cAdmitShed.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, admitResponse{
			Admit: governor.Shed.String(),
			Error: "admission queue full; retry later",
		})
		return
	}
	admit := governor.Degrade
	if s.runningN < s.opts.MaxConcurrent && len(s.queue) == 0 {
		admit = governor.Full
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	if s.journal != nil {
		// Write-ahead admission: the record must be durable before the
		// 202 goes out, or a crash could lose an acknowledged job. The
		// fsync happens under s.mu — admissions serialise on it, which is
		// fine at this daemon's request rates.
		reqJSON, err := json.Marshal(req)
		if err == nil {
			err = s.journalAppendStrict(durable.Record{
				Type: durable.RecJobAdmit, ID: id, Tenant: tenant, Trace: trace, Request: reqJSON,
			})
		}
		if err != nil {
			s.mu.Unlock()
			httpError(w, http.StatusInternalServerError, "journaling admission: "+err.Error())
			return
		}
	}
	s.enqueueLocked(newJob(id, tenant, req, sess.rel, cfg, admit, trace))
	s.mu.Unlock()

	if admit == governor.Full {
		s.cAdmitFull.Inc()
	} else {
		s.cAdmitQueue.Inc()
	}
	s.poke()
	writeJSON(w, http.StatusAccepted, admitResponse{JobID: id, State: stateQueued, Admit: admit.String(), TraceID: trace})
}

type admitResponse struct {
	JobID   string `json:"job_id,omitempty"`
	State   string `json:"state,omitempty"`
	Admit   string `json:"admit"`
	TraceID string `json:"trace_id,omitempty"`
	Error   string `json:"error,omitempty"`
}

// jobStatusView is the GET /v1/jobs/{id} body.
type jobStatusView struct {
	ID            string      `json:"id"`
	Tenant        string      `json:"tenant"`
	Relation      string      `json:"relation"`
	State         string      `json:"state"`
	Admit         string      `json:"admit"`
	TraceID       string      `json:"trace_id,omitempty"`
	QueuePosition int         `json:"queue_position,omitempty"`
	CreatedMS     int64       `json:"created_unix_ms"`
	StartedMS     int64       `json:"started_unix_ms,omitempty"`
	FinishedMS    int64       `json:"finished_unix_ms,omitempty"`
	Attempts      int         `json:"attempts,omitempty"`
	Error         string      `json:"error,omitempty"`
	Summary       *jobSummary `json:"summary,omitempty"`
}

func (s *Server) statusView(j *job) jobStatusView {
	j.mu.Lock()
	v := jobStatusView{
		ID:        j.id,
		Tenant:    j.tenant,
		Relation:  j.relation,
		State:     j.state,
		Admit:     j.admit.String(),
		TraceID:   j.trace,
		CreatedMS: j.created.UnixMilli(),
		Attempts:  j.attempt,
		Error:     j.errMsg,
		Summary:   j.summary,
	}
	if !j.started.IsZero() {
		v.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		v.FinishedMS = j.finished.UnixMilli()
	}
	queued := j.state == stateQueued
	j.mu.Unlock()
	if queued {
		v.QueuePosition = s.queuePosition(j)
	}
	return v
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.statusView(j))
}

// handleJobResult serves one rendered artifact of a done job
// (?format=ipynb|markdown|html|report|trace|metrics, default ipynb).
// Any non-done state is refused — a cancelled or failed job has no
// partial notebook to leak.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "ipynb"
	}
	j.mu.Lock()
	state, code, msg := j.state, j.failCode, j.errMsg
	j.mu.Unlock()
	switch state {
	case stateDone:
		if !s.writeArtifact(w, j, format) {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (ipynb, markdown, html, report, trace, metrics)", format))
		}
	case stateFailed, stateFailedPermanent:
		if code == 0 {
			code = http.StatusInternalServerError
		}
		verb := "failed"
		if state == stateFailedPermanent {
			verb = "quarantined"
		}
		httpError(w, code, "job "+verb+": "+msg)
	case stateCancelled:
		httpError(w, http.StatusGone, "job was cancelled; no result")
	default:
		httpError(w, http.StatusConflict, "job not finished; state is "+state)
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	// A queued job leaves the queue and settles now; a running one
	// settles when its pipeline notices the cancelled context.
	s.unqueue(j)
	if !s.settle(j, stateQueued, stateCancelled, jobEnd{msg: "cancelled by client"}) && !j.cancelRun() {
		httpError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusAccepted, admitResponse{JobID: j.id, State: stateCancelled, Admit: j.admit.String()})
}

// writeArtifact serves done job j's artifact in format: the one path for
// /result, fresh and recovered jobs alike. An
// in-memory server sends the bytes the job holds. A durable one reads
// the stored file on every request and sends it only if it matches its
// journaled fingerprint; otherwise it answers 500 naming the failed
// verification and counts it in server_artifact_verify_failures. It
// returns false, having written nothing, when j holds no artifact in
// format.
func (s *Server) writeArtifact(w http.ResponseWriter, j *job, format string) bool {
	j.mu.Lock()
	meta, stored := j.stored[format]
	var data []byte
	found := stored
	for _, a := range j.artifacts {
		if a.Key == format {
			data, found = a.Data, true
		}
	}
	j.mu.Unlock()
	if !found {
		return false
	}
	if stored {
		var err error
		if data, err = s.store.ReadVerified(artifactPath(j.id, format), meta); err != nil {
			s.cVerifyFail.Inc()
			httpError(w, http.StatusInternalServerError, err.Error())
			return true
		}
	}
	ct, _ := pipeline.ArtifactContentType(format)
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data) // client disconnect; nowhere to report
	return true
}

// handleJobEvents is GET /v1/jobs/{id}/events: a server-sent-event
// stream replaying the job's event log and following it live until the
// job reaches a terminal state or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	notify, unsub := j.subscribe()
	defer unsub()
	ctx := r.Context()
	idx := 0
	for {
		evs, start, terminal := j.eventsSince(idx)
		if start > idx {
			// The bounded log dropped events this subscriber never saw;
			// say so instead of silently skipping them.
			_, _ = fmt.Fprintf(w, "event: truncated\ndata: {\"dropped\":%d}\n\n", start-idx)
			idx = start
		}
		for _, ev := range evs {
			// Write errors mean the client went away; the ctx select
			// below will see it.
			_, _ = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", idx, ev.name, ev.data)
			idx++
		}
		fl.Flush()
		if terminal {
			if more, _, _ := j.eventsSince(idx); len(more) == 0 {
				return
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-notify:
		}
	}
}
