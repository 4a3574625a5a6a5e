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
	// Tenant scopes quota accounting; empty falls back to the X-Tenant
	// header, then to "default".
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
	// degradation ladder, not hard cancellation), capped by the daemon's
	// JobTimeBudget.
	TimeBudgetNS int64 `json:"time_budget_ns,omitempty"`
}

// buildConfig maps a request onto a pipeline.Config, starting from
// NewConfig defaults and applying the daemon's caps. The server later
// overwrites Cache, Obs and Logf — everything the response bytes depend
// on is decided here, which is what makes server output reproducible by
// a one-shot pipeline.Generate with the same Config.
func buildConfig(req jobRequest, opts Options) (pipeline.Config, error) {
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
	if opts.JobThreads > 0 && cfg.Threads > opts.JobThreads {
		cfg.Threads = opts.JobThreads
	}
	switch req.Solver {
	case "", "heuristic":
		cfg.Solver = pipeline.SolverHeuristic
	case "exact":
		cfg.Solver = pipeline.SolverExact
	case "topk":
		cfg.Solver = pipeline.SolverTopK
	case "heuristic+2opt":
		cfg.Solver = pipeline.SolverHeuristicPlus
	default:
		return cfg, fmt.Errorf("unknown solver %q (heuristic, exact, topk, heuristic+2opt)", req.Solver)
	}
	switch req.Sampling {
	case "", "none":
	case "random":
		cfg.Sampling = sampling.Random
		cfg.SampleFrac = req.SampleFrac
	case "unbalanced":
		cfg.Sampling = sampling.Unbalanced
		cfg.SampleFrac = req.SampleFrac
	default:
		return cfg, fmt.Errorf("unknown sampling %q (none, random, unbalanced)", req.Sampling)
	}
	if req.WSC != nil {
		cfg.UseWSC = *req.WSC
	}
	cfg.IncludeHypotheses = req.IncludeHypotheses
	if req.TimeBudgetNS < 0 {
		return cfg, fmt.Errorf("time_budget_ns must be non-negative, got %d", req.TimeBudgetNS)
	}
	tb := time.Duration(req.TimeBudgetNS)
	if opts.JobTimeBudget > 0 && (tb == 0 || tb > opts.JobTimeBudget) {
		tb = opts.JobTimeBudget
	}
	cfg.TimeBudget = tb
	cfg.NoCompress = opts.NoCompress
	return cfg, cfg.Validate()
}

// artifact is one rendered output of a finished job.
type artifact struct {
	contentType string
	data        []byte
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

// job is one admitted notebook-generation request.
type job struct {
	id       string
	tenant   string
	relation string
	rel      *table.Relation
	cfg      pipeline.Config
	admit    governor.Level
	created  time.Time
	trace    string // W3C trace id; immutable after construction

	// notBefore delays dequeue for recovered jobs under retry backoff.
	// It is written only before the job is published to the queue and
	// read under s.mu, so it needs no lock of its own.
	notBefore time.Time

	mu              sync.Mutex
	state           string
	attempt         int // execution attempts, counting across restarts
	started         time.Time
	finished        time.Time
	cancelFn        func()
	cancelRequested bool
	events          []sseEvent
	firstIdx        int // logical index of events[0]; >0 once the log was bounded
	notify          []chan struct{}
	artifacts       map[string]artifact
	errMsg          string
	failCode        int // HTTP status explaining a failed job
	summary         *jobSummary
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

// markRunning flips queued → running (no-op when already cancelled).
func (j *job) markRunning() {
	j.mu.Lock()
	if j.state == stateQueued {
		j.state = stateRunning
		j.started = time.Now()
	}
	j.mu.Unlock()
	j.publish("state", stateEvent{State: stateRunning})
}

// armCancel installs the running job's cancel func. Returns false when
// cancellation was requested while the job sat in the queue — the caller
// must not start the pipeline.
func (j *job) armCancel(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.cancelFn = cancel
	return true
}

// requestCancel asks a queued or running job to stop. Returns false for
// jobs already terminal.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return false
	}
	j.cancelRequested = true
	cancel := j.cancelFn
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// jobEnd explains a terminal transition: the artifacts and summary of a
// done job, the HTTP status (code) and message of a failed one, the
// message of a cancelled one.
type jobEnd struct {
	artifacts map[string]artifact
	summary   *jobSummary
	code      int
	msg       string
}

// finish moves the job to a terminal state and announces it. The state,
// its explanation and the terminal event (done, error, or a cancelled
// state event) land in one j.mu critical section, so a subscriber that
// reads a terminal state always finds the terminal event already logged.
func (j *job) finish(state string, end jobEnd) {
	name, payload := "state", any(stateEvent{State: state})
	switch state {
	case stateDone:
		name, payload = "done", end.summary
	case stateFailed:
		name, payload = "error", errorEvent{Error: end.msg, Code: end.code}
	}
	data := eventData(payload)
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.artifacts, j.summary = end.artifacts, end.summary
	j.failCode, j.errMsg = end.code, end.msg
	subs := j.appendLocked(name, data)
	j.mu.Unlock()
	wake(subs)
}

// runJob executes one admitted job on the calling worker goroutine: a
// fresh per-job obs registry (traced, with spans streamed to SSE), the
// daemon's shared cache, and the request's Config. Artifacts render only
// on success; every terminal path releases the worker slot exactly once.
//
// Durable ordering: the attempt is journaled (job-start) before the
// pipeline runs, artifacts are persisted and the job-done record fsynced
// before the job is marked done — so a crash at any point leaves either
// an open-ended journal entry (the job re-runs on the next boot) or a
// fully durable result, never an acknowledged-but-lost notebook.
func (s *Server) runJob(jobsCtx context.Context, j *job) {
	defer s.release(j)
	queueWait := time.Since(j.created)
	s.mu.Lock()
	tn := s.tenantLocked(j.tenant)
	s.mu.Unlock()
	s.tQueueWait.Observe(queueWait)
	tn.tQueue.Observe(queueWait)
	j.markRunning()

	jctx, cancel := context.WithCancel(jobsCtx)
	defer cancel()
	if !j.armCancel(cancel) {
		s.journalAppend(durable.Record{Type: durable.RecJobCancelled, ID: j.id})
		j.finish(stateCancelled, jobEnd{msg: "cancelled while queued"})
		s.cCancelled.Inc()
		s.finishJob(j, nil, tn, stateCancelled, queueWait, 0)
		return
	}

	j.mu.Lock()
	j.attempt++
	attempt := j.attempt
	j.mu.Unlock()
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

	cfg := j.cfg
	cfg.Cache = s.cache
	cfg.Obs = reg
	cfg.Logf = func(format string, args ...any) {
		j.publish("log", logEvent{Line: fmt.Sprintf(format, args...)})
	}

	begin := time.Now()
	res, err := pipeline.GenerateContext(jctx, j.rel, cfg)
	wall := time.Since(begin)
	s.tWall.Observe(wall)
	tn.tWall.Observe(wall)
	if err != nil {
		reg.MarkInterrupted()
		switch {
		case errors.Is(err, context.Canceled) && jobsCtx.Err() != nil:
			// Shutdown interruption is deliberately NOT journaled as
			// terminal: the open-ended entry makes a durable server
			// re-enqueue the job on the next boot.
			j.finish(stateFailed, jobEnd{code: http.StatusServiceUnavailable, msg: "server shut down mid-job"})
			s.cFailed.Inc()
			s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
		case errors.Is(err, context.Canceled):
			s.journalAppend(durable.Record{Type: durable.RecJobCancelled, ID: j.id})
			j.finish(stateCancelled, jobEnd{msg: "cancelled by client"})
			s.cCancelled.Inc()
			s.finishJob(j, reg, tn, stateCancelled, queueWait, wall)
		default:
			s.journalAppend(durable.Record{
				Type: durable.RecJobFailed, ID: j.id,
				Code: http.StatusInternalServerError, Error: err.Error(),
			})
			j.finish(stateFailed, jobEnd{code: http.StatusInternalServerError, msg: err.Error()})
			s.cFailed.Inc()
			s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
		}
		return
	}

	arts, err := pipeline.RenderArtifacts(res, reg)
	if err != nil {
		s.failJournaled(j, http.StatusInternalServerError, "rendering artifacts: "+err.Error())
		s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
		return
	}
	sum := jobSummary{
		Queries:      len(res.Solution.Order),
		Insights:     len(res.Insights),
		Solver:       res.TAP.Solver,
		Degraded:     res.Degraded.Phases,
		WallMS:       wall.Milliseconds(),
		CacheHits:    res.Counts.CacheHits,
		CacheRollups: res.Counts.CacheRollups,
		CacheMisses:  res.Counts.CacheMisses,
	}

	// Durable commit point: artifacts on disk, then the job-done record.
	// Either failing fails the job — a done acknowledgement must imply a
	// recoverable result.
	metas, err := s.persistJobArtifacts(j.id, arts)
	if err != nil {
		s.failJournaled(j, http.StatusInternalServerError, "persisting artifacts: "+err.Error())
		s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
		return
	}
	if s.journal != nil {
		sumJSON, err := json.Marshal(sum)
		if err != nil {
			s.failJournaled(j, http.StatusInternalServerError, "encoding summary: "+err.Error())
			s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
			return
		}
		if err := s.journalAppendStrict(durable.Record{
			Type: durable.RecJobDone, ID: j.id, Trace: j.trace, Artifacts: metas, Summary: sumJSON,
		}); err != nil {
			s.failJournaled(j, http.StatusInternalServerError, "journaling completion: "+err.Error())
			s.finishJob(j, reg, tn, stateFailed, queueWait, wall)
			return
		}
	}

	artifacts := make(map[string]artifact, len(arts))
	for _, a := range arts {
		artifacts[a.Key] = artifact{contentType: a.ContentType, data: a.Data}
	}
	tn.jobs.Inc()
	s.cDone.Inc()
	j.finish(stateDone, jobEnd{artifacts: artifacts, summary: &sum})
	s.finishJob(j, reg, tn, stateDone, queueWait, wall)
}

// finishJob is the terminal accounting every runJob exit path shares:
// the end-to-end admit-to-done histogram (done jobs only, so scrape
// counts match completed-job totals), the server-lifetime span counters,
// the flight-recorder entry, and one info-level structured log record
// keyed by the job's trace id. reg is nil for jobs cancelled before the
// pipeline started; every obs call tolerates that.
func (s *Server) finishJob(j *job, reg *obs.Registry, tn *tenantState, state string, queueWait, wall time.Duration) {
	e2e := time.Since(j.created)
	if state == stateDone {
		s.tE2E.Observe(e2e)
		tn.tE2E.Observe(e2e)
	}
	s.cSpans.Add(int64(reg.SpanCount()))
	s.cSpansDropped.Add(reg.Dropped())

	spans, tracks := reg.SnapshotSpans(0)
	shift := time.Duration(0)
	if reg != nil {
		if d := reg.StartTime().Sub(j.created); d > 0 {
			shift = d
		}
	}
	s.flight.Add(obs.FlightEntry{
		ID:      j.id,
		TraceID: j.trace,
		Labels: map[string]string{
			"tenant":   j.tenant,
			"relation": j.relation,
			"state":    state,
		},
		QueueWaitUS: float64(queueWait) / 1e3,
		RunUS:       float64(wall) / 1e3,
		E2EUS:       float64(e2e) / 1e3,
		ShiftUS:     float64(shift) / 1e3,
		Tracks:      tracks,
		Spans:       spans,
		SpanTotal:   int64(reg.SpanCount()),
		SpanDropped: reg.Dropped(),
	})

	j.mu.Lock()
	attempt := j.attempt
	j.mu.Unlock()
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

// failJournaled records a terminal server-side failure in the journal
// and on the job.
func (s *Server) failJournaled(j *job, code int, msg string) {
	s.journalAppend(durable.Record{Type: durable.RecJobFailed, ID: j.id, Code: code, Error: msg})
	j.finish(stateFailed, jobEnd{code: code, msg: msg})
	s.cFailed.Inc()
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
		tenant = r.Header.Get("X-Tenant")
	}
	if tenant == "" {
		tenant = "default"
	}
	if len(tenant) > 64 {
		httpError(w, http.StatusBadRequest, "tenant name too long (max 64 bytes)")
		return
	}
	cfg, err := buildConfig(req, s.opts)
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
	t := s.tenantLocked(tenant)
	if len(s.queue) >= s.opts.QueueDepth || t.queued >= s.opts.TenantQueueDepth {
		shedC, tenantShedC := s.cAdmitShed, t.shed
		s.mu.Unlock()
		shedC.Inc()
		tenantShedC.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, admitResponse{
			Admit: governor.Shed.String(),
			Error: "admission queue full; retry later",
		})
		return
	}
	admit := governor.Degrade
	if s.runningN < s.opts.MaxConcurrent && t.running < s.opts.TenantConcurrent && len(s.queue) == 0 {
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
	j := newJob(id, tenant, req, sess.rel, cfg, admit, trace)
	s.jobs[id] = j
	s.queue = append(s.queue, j)
	t.queued++
	s.gQueued.Set(int64(len(s.queue)))
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
	state, failCode, errMsg := j.state, j.failCode, j.errMsg
	art, ok := j.artifacts[format]
	j.mu.Unlock()
	switch state {
	case stateDone:
		if !ok {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (ipynb, markdown, html, report, trace, metrics)", format))
			return
		}
		w.Header().Set("Content-Type", art.contentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(art.data) // client disconnect; nowhere to report
	case stateFailed:
		if failCode == 0 {
			failCode = http.StatusInternalServerError
		}
		httpError(w, failCode, "job failed: "+errMsg)
	case stateFailedPermanent:
		if failCode == 0 {
			failCode = http.StatusInternalServerError
		}
		httpError(w, failCode, "job quarantined: "+errMsg)
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
	// A queued job must also leave the queue so no worker picks it up.
	s.mu.Lock()
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
			s.tenantLocked(j.tenant).queued--
			s.gQueued.Set(int64(len(s.queue)))
			break
		}
	}
	s.mu.Unlock()
	if !j.requestCancel() {
		httpError(w, http.StatusConflict, "job already finished")
		return
	}
	// A job cancelled before any worker claimed it is terminal now; a
	// running one becomes terminal when the pipeline notices its context.
	j.mu.Lock()
	if j.state == stateQueued {
		j.mu.Unlock()
		s.journalAppend(durable.Record{Type: durable.RecJobCancelled, ID: j.id})
		j.finish(stateCancelled, jobEnd{msg: "cancelled by client"})
		s.cCancelled.Inc()
	} else {
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusAccepted, admitResponse{JobID: j.id, State: stateCancelled, Admit: j.admit.String()})
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
	s.mu.Lock()
	tn := s.tenantLocked(j.tenant)
	s.mu.Unlock()
	streamBegin := time.Now()
	firstFlushed := false
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
		if !firstFlushed && idx > 0 {
			// SSE first-event latency: subscribe → first delivered batch.
			firstFlushed = true
			d := time.Since(streamBegin)
			s.tSSEFirst.Observe(d)
			tn.tSSE.Observe(d)
		}
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
