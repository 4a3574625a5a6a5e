// Package server is the long-lived notebook-generation daemon behind
// cmd/comparenbd: an HTTP/JSON service that loads relations once, keeps
// them in a session registry, and admits concurrent notebook-generation
// jobs through one bounded FIFO queue.
//
// The serving path reuses the batch pipeline unchanged — every job runs
// pipeline.GenerateContext with the daemon's shared engine.CubeCache
// (Config.Cache), so repeated requests over the same relation skip the
// base-relation scans while notebook bytes stay identical to a one-shot
// run (the e2e suite in this package asserts that byte-for-byte).
//
// Admission reuses the governor's Level vocabulary: Full means a worker
// slot is free and the job starts immediately, Degrade means it waits in
// the bounded queue, Shed means the queue is full and the request is
// refused with 429 + Retry-After. Draining (context cancellation of Run)
// flips admission to 503, fails queued jobs, lets running jobs finish,
// and then returns — the graceful half of shutdown; HardStop cancels
// running jobs too.
//
// See docs/SERVER.md for the API reference and admission model.
package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/engine"
	"comparenb/internal/obs"
)

// Options configures a Server. The zero value is usable: New fills in
// every default.
type Options struct {
	// MaxConcurrent is the number of job workers — the global cap on
	// notebook generations running at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds the global admission queue; a request arriving
	// with the queue full is shed with 429 (default 64).
	QueueDepth int
	// CacheBudget is the shared cube cache's soft budget in bytes,
	// enforced by phase-boundary Trims only (default 256 MiB).
	CacheBudget int64
	// MaxUploadBytes bounds a CSV upload body (default 32 MiB).
	MaxUploadBytes int64
	// MaxRelations bounds the session registry (default 64).
	MaxRelations int
	// MaxRows bounds rows per loaded relation (default 1<<20).
	MaxRows int
	// DrainTimeout bounds how long Run waits for running jobs after its
	// context is cancelled before hard-cancelling them (0 = wait
	// indefinitely).
	DrainTimeout time.Duration
	// StateDir roots the durability layer: a write-ahead job journal plus
	// an atomic artifact store (see internal/durable). Empty means
	// in-memory operation — nothing survives a restart. With a state dir,
	// every session load and job lifecycle transition is journaled before
	// it is acknowledged, finished artifacts are persisted atomically, and
	// Run replays the journal on startup: completed jobs come back with
	// hash-verified artifacts, interrupted jobs are re-enqueued under the
	// retry policy or quarantined.
	StateDir string
	// MaxAttempts bounds execution attempts per job before a
	// crash-interrupted job is quarantined as failed_permanent
	// (default 3). Only meaningful with StateDir.
	MaxAttempts int
	// RetryBase is the first re-enqueue backoff for a crash-interrupted
	// job; later attempts double it, with deterministic per-job jitter
	// (default 250ms). Only meaningful with StateDir.
	RetryBase time.Duration
	// Logger receives one structured record per started job, keyed by
	// trace_id. Nil discards them.
	Logger *slog.Logger
}

// withDefaults returns opts with every unset field defaulted.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBudget <= 0 {
		o.CacheBudget = 256 << 20
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 32 << 20
	}
	if o.MaxRelations <= 0 {
		o.MaxRelations = 64
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 1 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Server is the daemon: session registry, job scheduler, shared cube
// cache and HTTP API. Create with New, serve s.Handler(), and run the
// workers with Run.
type Server struct {
	opts  Options
	reg   *obs.Registry // server-lifetime registry backing /metrics
	cache *engine.CubeCache
	mux   *http.ServeMux
	start time.Time

	// Durability layer; all nil/zero when StateDir is unset. recovered is
	// the journal folded at New time and consumed by Run's replay.
	journal   *durable.Journal
	store     *durable.Store
	retry     durable.RetryPolicy
	recovered *durable.State

	mu         sync.Mutex
	sessions   map[string]*session
	jobs       map[string]*job
	queue      []*job // FIFO in admission order
	runningN   int
	draining   bool
	ready      bool // false while Run replays the journal
	hardCancel func()
	seq        int

	// wake is poked (non-blocking, capacity MaxConcurrent) whenever the
	// queue grows or a slot frees, so idle workers re-scan the queue.
	wake chan struct{}

	cAdmitFull, cAdmitQueue, cAdmitShed              *obs.Counter
	cDone, cFailed, cCancelled                       *obs.Counter
	cSessLoad, cSessDrop                             *obs.Counter
	cRecoveredDone, cRecoveredRequeued, cQuarantined *obs.Counter
	cRetries, cJournalErr, cVerifyFail               *obs.Counter
	cSpans, cSpansDropped                            *obs.Counter
	gRunning, gQueued, gSessions                     *obs.Gauge
	tWall, tQueueWait, tE2E, tSSEFirst               *obs.Timing

	// log receives one structured record per started job, keyed by
	// trace_id.
	log *slog.Logger
}

// New builds a Server with its shared cache and HTTP routes. Workers do
// not start until Run. With Options.StateDir set, New reads and folds
// the existing journal (corruption is an error — refuse to serve from a
// state dir that cannot be trusted) and opens it for appending; the
// folded state is applied by Run before the first job runs.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:     opts,
		reg:      obs.New(),
		start:    time.Now(),
		sessions: make(map[string]*session),
		jobs:     make(map[string]*job),
		wake:     make(chan struct{}, opts.MaxConcurrent),
	}
	s.cache = engine.NewCubeCache(opts.CacheBudget)
	s.cache.Instrument(s.reg)
	s.cAdmitFull = s.reg.Counter("server_admit_full")
	s.cAdmitQueue = s.reg.Counter("server_admit_degrade")
	s.cAdmitShed = s.reg.Counter("server_admit_shed")
	s.cDone = s.reg.Counter("server_jobs_done")
	s.cFailed = s.reg.Counter("server_jobs_failed")
	s.cCancelled = s.reg.Counter("server_jobs_cancelled")
	s.cSessLoad = s.reg.Counter("server_sessions_loaded")
	s.cSessDrop = s.reg.Counter("server_sessions_dropped")
	s.cRecoveredDone = s.reg.Counter("server_recovered_done")
	s.cRecoveredRequeued = s.reg.Counter("server_recovered_requeued")
	s.cQuarantined = s.reg.Counter("server_jobs_quarantined")
	s.cRetries = s.reg.Counter("server_job_retries")
	s.cJournalErr = s.reg.Counter("server_journal_errors")
	s.cVerifyFail = s.reg.Counter("server_artifact_verify_failures")
	s.cSpans = s.reg.Counter("obs_spans")
	s.cSpansDropped = s.reg.Counter("obs_spans_dropped")
	s.gRunning = s.reg.Gauge("server_jobs_running")
	s.gQueued = s.reg.Gauge("server_jobs_queued")
	s.gSessions = s.reg.Gauge("server_sessions")
	s.tWall = s.reg.Timing("server_job_wall")
	s.tQueueWait = s.reg.Timing("server_job_queue_wait")
	s.tE2E = s.reg.Timing("server_job_e2e")
	s.tSSEFirst = s.reg.Timing("server_sse_first_event")
	s.log = opts.Logger

	if opts.StateDir != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	} else {
		// In-memory mode has nothing to replay; the server is ready the
		// moment Run starts (and for preloads even before).
		s.ready = true
	}

	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP API, wrapped in the tracing
// middleware: every request resolves a W3C trace identity (accepted or
// generated) and echoes it in the response traceparent header.
func (s *Server) Handler() http.Handler { return withTracing(s.mux) }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/relations", s.handleLoadRelation)
	s.mux.HandleFunc("GET /v1/relations", s.handleListRelations)
	s.mux.HandleFunc("DELETE /v1/relations/{name}", s.handleDropRelation)
	s.mux.HandleFunc("POST /v1/notebooks", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
}

// Run starts the worker pool and blocks until ctx is cancelled and the
// server has drained: admission flips to 503, queued jobs fail with 503,
// running jobs finish (bounded by Options.DrainTimeout, after which they
// are hard-cancelled). Every worker goroutine is joined before Run
// returns, so a returned Run means no server goroutines survive.
//
// With a state dir, Run first replays the folded journal — restoring
// sessions, re-serving verified artifacts of completed jobs, and
// re-enqueueing or quarantining interrupted ones — before any worker
// starts; /readyz reports 503 until the replay finishes. The journal is
// closed after the drain, so a returned Run has released the state dir.
func (s *Server) Run(ctx context.Context) error {
	if err := s.recoverDurable(); err != nil {
		return err
	}
	jobsCtx, hardCancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.hardCancel = hardCancel
	s.mu.Unlock()
	defer hardCancel()

	var wg sync.WaitGroup
	for i := 0; i < s.opts.MaxConcurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(ctx, jobsCtx)
		}()
	}

	<-ctx.Done()
	s.beginDrain()

	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	if s.opts.DrainTimeout > 0 {
		t := time.NewTimer(s.opts.DrainTimeout)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			hardCancel()
			<-drained
		}
	} else {
		<-drained
	}
	if s.journal != nil {
		_ = s.journal.Close() // drained; a close error changes nothing
	}
	return nil
}

// HardStop cancels every running job immediately. Queued jobs are failed
// by the drain that Run's context cancellation already triggered; this
// is the second-signal escalation for jobs that refuse to finish.
func (s *Server) HardStop() {
	s.mu.Lock()
	cancel := s.hardCancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// beginDrain stops admission and fails every queued job with 503.
// Running jobs are left to finish. Deliberately nothing is journaled
// here (settle journals no 503): a drain-failed queued job keeps its
// open-ended journal entry, so a durable server re-enqueues it on the
// next boot instead of losing it.
func (s *Server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	var queued []*job
	for len(s.queue) > 0 {
		queued = append(queued, s.unqueueLocked(0))
	}
	s.mu.Unlock()
	for _, j := range queued {
		s.settle(j, stateQueued, stateFailed, jobEnd{code: http.StatusServiceUnavailable, msg: "server shutting down before job started"})
	}
	s.pokeAll()
}

func (s *Server) setReady() {
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
}

// worker is one job-execution loop: drain the queue, then sleep on the
// wake channel until there is more work or the server shuts down.
func (s *Server) worker(ctx, jobsCtx context.Context) {
	for {
		if j := s.dequeue(); j != nil {
			s.runJob(jobsCtx, j)
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-s.wake:
		}
	}
}

// dequeue pops the first queued job whose retry backoff (if any) has
// elapsed, claiming a slot for it. Returns nil when nothing is eligible
// or the server is draining.
func (s *Server) dequeue() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	now := time.Now()
	for i, j := range s.queue {
		// notBefore is set only before the job is published to the queue
		// (under s.mu), so reading it here needs no further locking.
		if j.notBefore.After(now) {
			continue
		}
		s.unqueueLocked(i)
		s.runningN++
		s.gRunning.Set(int64(s.runningN))
		return j
	}
	return nil
}

// enqueueLocked registers j and appends it to the queue: admission and
// recovery's re-enqueue. The caller holds s.mu.
func (s *Server) enqueueLocked(j *job) {
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.gQueued.Set(int64(len(s.queue)))
}

// unqueueLocked removes and returns s.queue[i], the one way a job leaves
// the queue: dequeue, DELETE and drain. The caller holds s.mu.
func (s *Server) unqueueLocked(i int) *job {
	j := s.queue[i]
	s.queue = slices.Delete(s.queue, i, i+1)
	s.gQueued.Set(int64(len(s.queue)))
	return j
}

// unqueue removes j from the queue if it is still there.
func (s *Server) unqueue(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.queue, j); i >= 0 {
		s.unqueueLocked(i)
	}
}

// release returns a worker slot and pokes one idle worker.
func (s *Server) release() {
	s.mu.Lock()
	s.runningN--
	s.gRunning.Set(int64(s.runningN))
	s.mu.Unlock()
	s.poke()
}

// poke wakes one idle worker; pokeAll wakes them all. Both are
// non-blocking: a full wake channel means every worker is already due a
// re-scan.
func (s *Server) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Server) pokeAll() {
	for i := 0; i < s.opts.MaxConcurrent; i++ {
		s.poke()
	}
}

// job returns the job by id, or nil.
func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// queuePosition returns j's 1-based position in the queue, or 0 when it
// is not queued.
func (s *Server) queuePosition(j *job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Index(s.queue, j) + 1
}

// handleMetrics serves the server registry in Prometheus text format:
// scheduler counters/gauges, the queue-wait, wall, e2e and SSE
// first-event histograms, plus the shared cache's engine_cache_*
// counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteMetrics(w) // client disconnect; nowhere to report
}

// handleLivez is pure liveness: the process is up and serving HTTP. It
// stays 200 during replay and during drain — restarting a server because
// it is busy recovering would only lose more work.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "alive"})
}

// handleReadyz is readiness and the full health picture in one body:
// 200 only when startup replay has finished and the server is not
// draining — the signal a load balancer should gate traffic on.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.healthLocked()
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

func (s *Server) healthLocked() healthStatus {
	s.mu.Lock()
	st := healthStatus{
		Status:      "ok",
		Ready:       s.ready && !s.draining,
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Sessions:    len(s.sessions),
		JobsRunning: s.runningN,
		JobsQueued:  len(s.queue),
	}
	switch {
	case s.draining:
		st.Status = "draining"
	case !s.ready:
		st.Status = "recovering"
	}
	s.mu.Unlock()
	return st
}

type healthStatus struct {
	Status      string `json:"status"`
	Ready       bool   `json:"ready"`
	UptimeMS    int64  `json:"uptime_ms"`
	Sessions    int    `json:"sessions"`
	JobsRunning int    `json:"jobs_running"`
	JobsQueued  int    `json:"jobs_queued"`
}

// handleListJobs lists every job, id-sorted.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]jobStatusView, 0, len(ids))
	for _, id := range ids {
		if j := s.job(id); j != nil {
			out = append(out, s.statusView(j))
		}
	}
	writeJSON(w, http.StatusOK, out)
}
