package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"comparenb/internal/obs"
	"comparenb/internal/pipeline"
	"comparenb/internal/table"
)

// verifiedKeys are the artifacts compared byte for byte with the
// one-shot reference. The report, trace and metrics artifacts carry
// wall-clock timings and legitimately differ.
var verifiedKeys = [...]string{"ipynb", "markdown", "html"}

// outcome is one measured job as the client saw it.
type outcome struct {
	req      int       // index into plan.requests
	id       string    // daemon job id
	due      time.Time // latency clock start: intended send (open loop) or send
	sent     time.Time // when the first request of the job actually went out
	uploadRT time.Duration
	admitRT  time.Duration
	accepted time.Time // 202 received
	ev       jobEvents
	shed     bool
	err      error
}

func (o *outcome) completed() bool { return o.err == nil && o.ev.state == "done" }

// latency runs from the latency clock start to the job's done event.
func (o *outcome) latency() time.Duration { return o.ev.done.Sub(o.due) }

// runJob executes one job (one session on fresh-upload) against the
// daemon, filling o. Errors land in o.err; they are counted, not fatal.
func runJob(ctx context.Context, c *client, p *plan, req int, due time.Time, o *outcome) {
	r := p.requests[req]
	o.req, o.due, o.sent = req, due, time.Now()
	if p.upload {
		rel, ok := p.relationByName(r.Relation)
		if !ok {
			o.err = fmt.Errorf("request names unknown relation %q", r.Relation)
			return
		}
		if o.err = c.upload(ctx, rel); o.err != nil {
			return
		}
		o.uploadRT = time.Since(o.sent)
		defer func() {
			if err := c.drop(ctx, r.Relation); err != nil && o.err == nil {
				o.err = err
			}
		}()
	}
	posted := time.Now()
	o.id, o.err = c.submit(ctx, r)
	o.accepted = time.Now()
	o.admitRT = o.accepted.Sub(posted)
	if o.err != nil {
		o.shed = errors.Is(o.err, errShed)
		return
	}
	o.err = c.follow(ctx, o.id, &o.ev)
}

// runClosed drives jobs (request indices) through clients closed-loop
// clients: each client sends its next job only once the previous one
// finished. It returns when every job has run or ctx is done.
func runClosed(ctx context.Context, c *client, p *plan, jobs []int, clients int, out []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				runJob(ctx, c, p, jobs[i], time.Now(), &out[i])
			}
		}()
	}
	wg.Wait()
}

// runOpen sends every job at its scheduled offset from start, whether or
// not earlier jobs finished: one arrival goroutine, one follower per
// in-flight job.
func runOpen(ctx context.Context, c *client, p *plan, start time.Time, out []outcome) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for i, off := range p.arrivals {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			runJob(ctx, c, p, p.order[i], due, &out[i])
		}(i, due)
	}
}

// checkAll turns the first failed set-up job into an error.
func checkAll(what string, out []outcome) error {
	for i := range out {
		if !out[i].completed() {
			err := out[i].err
			if err == nil {
				err = fmt.Errorf("job %s ended %q: %s", out[i].id, out[i].ev.state, out[i].ev.errMsg)
			}
			return fmt.Errorf("%s job %d: %w", what, i, err)
		}
	}
	return nil
}

// setUp starts a daemon and brings it to the state the measured window
// starts from, returning it with the set-up time: daemon start to
// readiness, uploads of the resident relations, and warm-up jobs.
func setUp(ctx context.Context, p *plan, stateDir string, tr *tracer) (*daemon, time.Duration, error) {
	runtime.GC() // earlier garbage is not this set-up's to collect
	begin := time.Now()
	d, err := startDaemon(p.options(stateDir))
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*daemon, time.Duration, error) {
		return nil, 0, errors.Join(err, d.stop())
	}
	if err := d.waitReady(ctx); err != nil {
		return fail(err)
	}
	if !p.upload {
		for _, rel := range p.relations {
			t := time.Now()
			if err := d.client.upload(ctx, rel); err != nil {
				return fail(err)
			}
			tr.add("server/upload", -1, t, time.Now())
		}
	}
	clients := p.clients
	if clients == 0 {
		clients = p.nproc
	}
	out := make([]outcome, len(p.warmups))
	runClosed(ctx, d.client, p, p.warmups, clients, out)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if err := checkAll("warm-up", out); err != nil {
		return fail(err)
	}
	return d, time.Since(begin), nil
}

// window is one measured pass over the plan's jobs.
type window struct {
	out        []outcome
	start, end time.Time
	cpu        time.Duration
	peakRSS    int64
}

// measure runs the plan's measured jobs against a set-up daemon. The
// CPU and RSS window opens at the first send and closes when the last
// job has finished; garbage from set-up is collected first so it is not
// charged to the window.
func measure(ctx context.Context, d *daemon, p *plan) (*window, error) {
	w := &window{out: make([]outcome, len(p.order))}
	runtime.GC()
	debug.FreeOSMemory()
	m := newMeter()
	m.Start()
	w.start = time.Now()
	if p.arrivals != nil {
		runOpen(ctx, d.client, p, w.start, w.out)
	} else {
		runClosed(ctx, d.client, p, p.order, p.clients, w.out)
	}
	m.Stop()
	w.end = w.start
	for i := range w.out {
		if w.out[i].completed() && w.out[i].ev.done.After(w.end) {
			w.end = w.out[i].ev.done
		}
	}
	w.cpu, w.peakRSS = m.CPU(), m.PeakRSS()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// counts is the per-run job accounting printed with every result.
type counts struct {
	Sent       int `json:"sent"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Shed       int `json:"shed"`
	Mismatched int `json:"mismatched"`
	SSEMissing int `json:"sse_terminal_missing"`
}

func (c *counts) add(o counts) {
	c.Sent += o.Sent
	c.Completed += o.Completed
	c.Failed += o.Failed
	c.Shed += o.Shed
	c.Mismatched += o.Mismatched
	c.SSEMissing += o.SSEMissing
}

// tally counts a window's outcomes. A job that did not complete is
// failed (or shed); a stream that lost its terminal event but whose job
// finished is counted separately and is not a failure.
func (w *window) tally() counts {
	var c counts
	for i := range w.out {
		o := &w.out[i]
		c.Sent++
		switch {
		case o.completed():
			c.Completed++
		case o.shed:
			c.Shed++
		default:
			c.Failed++
		}
		if o.ev.missing {
			c.SSEMissing++
		}
	}
	return c
}

// latencies returns completed jobs' latencies in milliseconds.
func (w *window) latencies() []float64 {
	var out []float64
	for i := range w.out {
		if w.out[i].completed() {
			out = append(out, ms(w.out[i].latency()))
		}
	}
	return out
}

// e2eMetrics derives the end-to-end figures of one window.
func (w *window) e2eMetrics(setup time.Duration) []metric {
	lat := w.latencies()
	n := float64(max(len(lat), 1)) // no completions: report zeros, not NaN
	return []metric{
		{"setup_s", "s", setup.Seconds()},
		{"latency_p50_ms", "ms", nearestRank(lat, 0.5)},
		{"latency_p90_ms", "ms", nearestRank(lat, 0.9)},
		{"throughput_jobs_s", "1/s", float64(len(lat)) / w.end.Sub(w.start).Seconds()},
		{"cpu_ms_per_job", "ms", ms(w.cpu) / n},
		{"peak_rss_mb", "MiB", float64(w.peakRSS) / (1 << 20)},
	}
}

// references renders every distinct request once, one-shot, through
// pipeline.GenerateContext + pipeline.RenderArtifacts with the Config
// the daemon derives from the same request.
func references(ctx context.Context, p *plan) ([]map[string][]byte, error) {
	refs := make([]map[string][]byte, len(p.requests))
	for i, r := range p.requests {
		rel, ok := p.relationByName(r.Relation)
		if !ok {
			return nil, fmt.Errorf("request names unknown relation %q", r.Relation)
		}
		tab, _, err := table.FromCSV(bytes.NewReader(rel.csv), table.CSVOptions{Name: rel.name, MaxRows: 1 << 20})
		if err != nil {
			return nil, fmt.Errorf("reference parse of %s: %w", rel.name, err)
		}
		cfg := r.config()
		cfg.Obs = obs.New()
		res, err := pipeline.GenerateContext(ctx, tab, cfg)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		arts, err := pipeline.RenderArtifacts(res, cfg.Obs)
		if err != nil {
			return nil, fmt.Errorf("reference render %d: %w", i, err)
		}
		refs[i] = make(map[string][]byte, len(arts))
		for _, a := range arts {
			refs[i][a.Key] = a.Data
		}
	}
	return refs, nil
}

// verify compares every completed job's notebook artifacts with its
// request's reference and returns how many jobs differ in any byte.
func verify(ctx context.Context, c *client, w *window, refs []map[string][]byte) (int, error) {
	mismatched := 0
	for i := range w.out {
		o := &w.out[i]
		if !o.completed() {
			continue
		}
		for _, key := range verifiedKeys {
			body, err := c.get(ctx, "/v1/jobs/"+o.id+"/result?format="+key)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(body, refs[o.req][key]) {
				mismatched++
				break
			}
		}
	}
	return mismatched, nil
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scratch is this run's private directory under the work root. Runs
// killed before they could clean up leave theirs behind; the next run
// sweeps every directory whose owning process is gone.
type scratch struct{ dir string }

func newScratch(root string) (*scratch, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("creating work root: %w", err)
	}
	sweepStale(root)
	dir, err := os.MkdirTemp(root, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, fmt.Errorf("creating run dir: %w", err)
	}
	return &scratch{dir: dir}, nil
}

func (s *scratch) path(name string) string { return filepath.Join(s.dir, name) }

func (s *scratch) remove() error { return os.RemoveAll(s.dir) }

// sweepStale removes run directories whose owner process has exited.
func sweepStale(root string) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range ents {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "run-%d-", &pid); err != nil || pid <= 0 {
			continue
		}
		if pid != os.Getpid() && !processAlive(pid) {
			_ = os.RemoveAll(filepath.Join(root, e.Name())) // best effort; retried next run
		}
	}
}

// dirUsage sums the sizes of the regular files under dir and counts the
// lines of its journal.
func dirUsage(dir string) (size int64, journalLines int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, 0, err
	}
	for _, b := range data {
		if b == '\n' {
			journalLines++
		}
	}
	return size, journalLines, nil
}

// processAlive reports whether pid names a live process. A zombie, a
// killed process its parent has not reaped yet, counts as gone.
func processAlive(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state letter follows the parenthesised command name.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 || i+2 >= len(data) {
		return true
	}
	return data[i+2] != 'Z' && data[i+2] != 'X'
}
