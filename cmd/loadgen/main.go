// Command loadgen is the client of the server and crash smokes in
// scripts/check.sh. It drives a running comparenbd and checks what it
// gets back; it measures nothing (perfbench is the serving benchmark).
//
//	comparenbd -addr 127.0.0.1:0 -addr-file /tmp/addr &
//	loadgen -addr "$(cat /tmp/addr)" -jobs 2 -trace-out /tmp/job.trace.json
//
// loadgen uploads its own deterministic dataset (internal/datagen Tiny),
// submits -jobs notebook jobs at once under one tenant, and polls each
// job to a terminal state. Every request carries a deterministic W3C
// traceparent derived from its seed. The run fails unless every job ends
// done under the trace id it was submitted with, and the server's
// comparenb_server_job_e2e_seconds histogram on /metrics counts every
// one. It can then download one finished job's trace and metrics
// artifacts for obscheck validation (-trace-out / -metrics-out).
//
// With -resume, loadgen submits nothing: it waits for a restarted
// durable daemon to report ready (/readyz), follows every journaled job
// to a terminal state, downloads every done job's notebook (which the
// daemon reads back from its store and must verify) and summarises the
// recovery as JSON (-out) — the verification half of the crash smoke.
// The run fails unless each notebook answers 200 with a body that parses
// as JSON. -journal names the journal
// as the crash left it (a copy taken before the restart): every
// recovered job must keep the trace id its admission record carried,
// at least one job must have been started and not finished, and each
// such job must have re-run to done in a further attempt.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"comparenb/internal/datagen"
	"comparenb/internal/durable"
)

const (
	relation = "loadgen" // the uploaded relation's name
	tenant   = "loadgen" // every job's tenant
	baseSeed = int64(1)  // dataset seed; job k runs with baseSeed+k

	pollEvery = 15 * time.Millisecond // job status poll interval
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "", "daemon address, host:port or http://host:port (required)")
		jobs        = flag.Int("jobs", 4, "notebook jobs, all submitted at once")
		rows        = flag.Int("rows", 400, "rows of the generated dataset")
		queries     = flag.Int("queries", 5, "notebook size per job")
		perms       = flag.Int("perms", 100, "permutations per statistical test")
		traceOut    = flag.String("trace-out", "", "download one finished job's Chrome trace artifact to this file")
		metricsOut  = flag.String("metrics-out", "", "download the same job's metrics exposition to this file")
		resume      = flag.Bool("resume", false, "submit nothing; wait for a restarted daemon's recovery and summarise journaled jobs")
		journalPath = flag.String("journal", "", "with -resume, the daemon's journal.jsonl as the crash left it: recovered jobs must keep their admission trace_id, and jobs it shows started and unfinished must re-run to done")
		out         = flag.String("out", "", "with -resume, write the JSON summary here (default stdout)")
	)
	flag.Parse()
	if *addr == "" {
		flag.Usage()
		os.Exit(2)
	}
	base := *addr
	if !strings.HasPrefix(base, "http") {
		base = "http://" + base
	}
	cl := &client{base: base, http: &http.Client{Timeout: 5 * time.Minute}}

	if *resume {
		return runResume(cl, *out, *journalPath, pollEvery, 2*time.Minute)
	}

	doneID, err := runSubmit(cl, *jobs, *rows, *queries, *perms)
	if err != nil {
		return err
	}
	for _, dl := range []struct{ path, dst string }{
		{"/v1/jobs/" + doneID + "/result?format=trace", *traceOut},
		{"/v1/jobs/" + doneID + "/result?format=metrics", *metricsOut},
	} {
		if dl.dst == "" {
			continue
		}
		data, err := cl.get(dl.path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(dl.dst, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runSubmit uploads the dataset, submits jobs notebook jobs at once and
// follows each to a terminal state. It fails unless every job ends done
// under the trace id it was submitted with and the server's e2e
// histogram counts at least that many jobs; otherwise it returns the id
// of one finished job.
func runSubmit(cl *client, jobs, rows, queries, perms int) (doneID string, err error) {
	if jobs < 1 {
		return "", fmt.Errorf("-jobs must be at least 1, got %d", jobs)
	}
	ds, err := datagen.Tiny(baseSeed, rows)
	if err != nil {
		return "", err
	}
	var csv bytes.Buffer
	if err := ds.Rel.WriteCSV(&csv); err != nil {
		return "", err
	}
	if err := cl.upload(relation, csv.Bytes()); err != nil {
		return "", err
	}

	ids := make([]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for k := 0; k < jobs; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Distinct seeds keep jobs from being pure cache replays
			// of one another while staying deterministic.
			ids[k], errs[k] = cl.oneJob(queries, perms, baseSeed+int64(k))
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", err
	}

	counted, err := cl.e2eCount()
	if err != nil {
		return "", err
	}
	if counted < int64(jobs) {
		return "", fmt.Errorf("server e2e histogram counts %d jobs, loadgen finished %d", counted, jobs)
	}
	return ids[jobs-1], nil
}

type client struct {
	base string
	http *http.Client
}

func (c *client) upload(name string, csv []byte) error {
	req, err := http.NewRequest("POST", c.base+"/v1/relations?name="+name, bytes.NewReader(csv))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	// 409 means a previous loadgen run already loaded it; reuse it.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("upload: %s: %s", resp.Status, body)
	}
	return nil
}

// requestTraceparent derives a deterministic per-request W3C traceparent
// from the job's seed: reruns carry the same trace ids, so a server's
// journal, logs or trace artifacts can be diffed across runs.
func requestTraceparent(seed int64) (header, traceID string) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("loadgen|%s|%d", tenant, seed)))
	traceID = hex.EncodeToString(sum[:16])
	parent := hex.EncodeToString(sum[16:24])
	return "00-" + traceID + "-" + parent + "-01", traceID
}

// oneJob submits one notebook job under its deterministic traceparent
// and follows it to a terminal state. It fails unless the server admits
// the job, echoes the trace id it was sent, and the job ends done.
func (c *client) oneJob(queries, perms int, seed int64) (jobID string, err error) {
	reqBody, err := json.Marshal(map[string]any{
		"relation": relation,
		"tenant":   tenant,
		"queries":  queries,
		"perms":    perms,
		"seed":     seed,
	})
	if err != nil {
		return "", err
	}
	traceparent, traceID := requestTraceparent(seed)
	req, err := http.NewRequest("POST", c.base+"/v1/notebooks", bytes.NewReader(reqBody))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("job seed %d: %w", seed, err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("job seed %d: %w", seed, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("job seed %d: POST /v1/notebooks: %s: %s", seed, resp.Status, bytes.TrimSpace(body))
	}
	var admit struct {
		JobID   string `json:"job_id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &admit); err != nil {
		return "", fmt.Errorf("job seed %d: admission body: %w", seed, err)
	}
	if admit.TraceID != traceID {
		return "", fmt.Errorf("job %s came back under trace id %q, submitted %q", admit.JobID, admit.TraceID, traceID)
	}

	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := c.getJSON("/v1/jobs/"+admit.JobID, &st); err != nil {
			return "", fmt.Errorf("job %s: %w", admit.JobID, err)
		}
		switch st.State {
		case "done":
			fmt.Fprintf(os.Stderr, "loadgen: job %s done trace=%s\n", admit.JobID, traceID)
			return admit.JobID, nil
		case "failed", "cancelled", "failed_permanent":
			return "", fmt.Errorf("job %s ended %s: %s", admit.JobID, st.State, st.Error)
		}
		time.Sleep(pollEvery)
	}
}

// resumeOut is the -resume summary: the fate of every journaled job
// after a restart, as seen through the public API.
type resumeOut struct {
	Addr          string `json:"addr"`
	Jobs          int    `json:"jobs"`
	Done          int    `json:"done"`
	Failed        int    `json:"failed"`
	Quarantined   int    `json:"quarantined"`
	Cancelled     int    `json:"cancelled"`
	TraceVerified int    `json:"trace_verified"`
	Rerun         int    `json:"rerun"`          // jobs interrupted mid-run that re-ran to done
	NotebooksRead int    `json:"notebooks_read"` // done jobs whose notebook downloaded as JSON
	WaitMS        int64  `json:"wait_ms"`
}

// runResume waits for a restarted daemon to become ready, then follows
// all journaled jobs to terminal states and reads every done job's
// notebook. It fails (nonzero exit) when the daemon never readies, a job
// never settles, a done job's notebook does not download as JSON, or the
// journal turned out empty — a crash smoke that recovered nothing proved
// nothing. With
// journalPath, the journal as the crash left it, it also fails unless
// the crash interrupted at least one started job and the restarted
// daemon re-ran every such job to done.
func runResume(cl *client, out, journalPath string, poll, timeout time.Duration) error {
	journaled, err := journalJobs(journalPath)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	begin := time.Now()
	deadline := begin.Add(timeout)
	for {
		if resp, err := cl.http.Get(cl.base + "/readyz"); err == nil {
			ready := resp.StatusCode == http.StatusOK
			_ = resp.Body.Close()
			if ready {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("resume: daemon not ready after %s", timeout)
		}
		time.Sleep(poll)
	}

	res := resumeOut{Addr: cl.base}
	var jobs []struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		TraceID  string `json:"trace_id"`
		Attempts int    `json:"attempts"`
	}
	for {
		if err := cl.getJSON("/v1/jobs", &jobs); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		res.Jobs, res.Done, res.Failed, res.Quarantined, res.Cancelled = len(jobs), 0, 0, 0, 0
		settled := true
		for _, j := range jobs {
			switch j.State {
			case "done":
				res.Done++
			case "failed":
				res.Failed++
			case "failed_permanent":
				res.Quarantined++
			case "cancelled":
				res.Cancelled++
			default:
				settled = false
			}
		}
		if settled && len(jobs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			if res.Jobs == 0 {
				return fmt.Errorf("resume: daemon recovered no journaled jobs — nothing to verify")
			}
			return fmt.Errorf("resume: %d of %d recovered jobs still unsettled after %s", res.Jobs-res.Done-res.Failed-res.Quarantined-res.Cancelled, res.Jobs, timeout)
		}
		time.Sleep(poll)
	}
	res.WaitMS = time.Since(begin).Milliseconds()

	for _, j := range jobs {
		if j.State != "done" {
			continue
		}
		body, err := cl.get("/v1/jobs/" + j.ID + "/result?format=ipynb")
		if err != nil {
			return fmt.Errorf("resume: job %s notebook: %w", j.ID, err)
		}
		if !json.Valid(body) {
			return fmt.Errorf("resume: job %s notebook is not JSON (%d bytes)", j.ID, len(body))
		}
		res.NotebooksRead++
	}

	// Crash recovery must keep trace correlation: every job the journal
	// admitted under a trace id must come back under the same one. A job
	// the crash cut off mid-run must run again, to done.
	if journalPath != "" {
		recovered := map[string]int{}
		for i, j := range jobs {
			recovered[j.ID] = i
		}
		for _, js := range journaled {
			i, ok := recovered[js.ID]
			if !ok {
				return fmt.Errorf("resume: journaled job %s missing after recovery", js.ID)
			}
			j := jobs[i]
			if js.Trace != "" {
				if j.TraceID != js.Trace {
					return fmt.Errorf("resume: job %s recovered with trace_id %q, journal admitted %q", js.ID, j.TraceID, js.Trace)
				}
				res.TraceVerified++
			}
			if js.Interrupted() && js.Attempts > 0 {
				if j.State != "done" || j.Attempts <= js.Attempts {
					return fmt.Errorf("resume: job %s was interrupted in attempt %d but recovered %s after %d attempts",
						js.ID, js.Attempts, j.State, j.Attempts)
				}
				res.Rerun++
			}
		}
		if res.TraceVerified == 0 {
			return fmt.Errorf("resume: journal %s admitted no traced jobs — nothing to verify", journalPath)
		}
		if res.Rerun == 0 {
			return fmt.Errorf("resume: journal %s shows no job started and unfinished — the crash interrupted no run", journalPath)
		}
	}

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// journalJobs folds a daemon's journal.jsonl with the daemon's own
// reader and fold (durable.ReadJournal, which skips a torn final line,
// and durable.Replay): every journaled job in admission order, with its
// trace id, attempts started and terminal record. Returns nil when no
// path was given (journal checks off).
func journalJobs(path string) ([]*durable.JobState, error) {
	if path == "" {
		return nil, nil
	}
	recs, err := durable.ReadJournal(path)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	st, err := durable.Replay(recs)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return st.Jobs, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return io.ReadAll(resp.Body)
}

// e2eCount reads the global comparenb_server_job_e2e_seconds_count from
// /metrics: how many jobs the server itself timed admit to done.
func (c *client) e2eCount() (int64, error) {
	data, err := c.get("/metrics")
	if err != nil {
		return 0, err
	}
	// Global line only: the per-tenant instances carry a tenant label.
	const prefix = "comparenb_server_job_e2e_seconds_count "
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strconv.ParseInt(rest, 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s line", strings.TrimSpace(prefix))
}
