package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"comparenb/internal/server"
)

// daemon is comparenbd running inside the benchmark process, wired the
// way cmd/comparenbd wires it: server.New, Handler on a loopback
// listener, Run. Logging is off (Options.Logger nil discards).
type daemon struct {
	srv      *server.Server
	hs       *http.Server
	base     string
	client   *client
	cancel   context.CancelFunc
	runErr   <-chan error
	serveErr <-chan error
}

// startDaemon boots the daemon; stop must be called on every path.
func startDaemon(opts server.Options) (*daemon, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		cancel: cancel,
	}
	d.client = newClient(d.base)
	d.runErr = async(func() error { return srv.Run(ctx) })
	d.serveErr = async(func() error { return d.hs.Serve(ln) })
	return d, nil
}

// async runs f on its own goroutine. The returned channel delivers f's
// result exactly once; receiving it is the goroutine's join.
func async(f func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	return ch
}

// stop shuts the daemon down and returns once its workers and HTTP
// server have exited: admission closes, running jobs are hard-cancelled,
// the listener and every open stream are closed.
func (d *daemon) stop() error {
	d.cancel()
	d.srv.HardStop()
	closeErr := d.hs.Close()
	runErr := <-d.runErr
	serveErr := <-d.serveErr
	d.client.close()
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil
	}
	return errors.Join(runErr, serveErr, closeErr)
}

// waitReady polls /readyz until the daemon has finished any journal
// replay and accepts work.
func (d *daemon) waitReady(ctx context.Context) error {
	for {
		code, _, err := d.client.do(ctx, http.MethodGet, "/readyz", "", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// client speaks the daemon's public HTTP/SSE API.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		// Enough idle connections that steady load reuses them instead
		// of cycling through loopback ports.
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     30 * time.Second,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }() // body fully read below; close error is moot
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// get fetches path and insists on 200.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	code, body, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(body))
	}
	return body, nil
}

// upload loads a relation through the CSV-upload shape of
// POST /v1/relations.
func (c *client) upload(ctx context.Context, rel relation) error {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/relations?name="+rel.name, "text/csv", rel.csv)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("uploading %s: status %d: %s", rel.name, code, bytes.TrimSpace(body))
	}
	return nil
}

// drop removes a relation from the daemon.
func (c *client) drop(ctx context.Context, name string) error {
	code, body, err := c.do(ctx, http.MethodDelete, "/v1/relations/"+name, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK && code != http.StatusNoContent {
		return fmt.Errorf("dropping %s: status %d: %s", name, code, bytes.TrimSpace(body))
	}
	return nil
}

// errShed is a 429 that outlived its retries.
var errShed = errors.New("shed: admission queue full after retries")

// maxShedRetries bounds how often a shed submission is retried.
const maxShedRetries = 3

// submit posts one notebook request and returns the job id. A 429 is
// retried after its Retry-After; exhausting the retries returns errShed.
func (c *client) submit(ctx context.Context, req request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		code, resp, err := c.do(ctx, http.MethodPost, "/v1/notebooks", "application/json", body)
		if err != nil {
			return "", err
		}
		switch code {
		case http.StatusAccepted:
			var ar struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal(resp, &ar); err != nil || ar.JobID == "" {
				return "", fmt.Errorf("admission response %q: %v", resp, err)
			}
			return ar.JobID, nil
		case http.StatusTooManyRequests:
			if attempt >= maxShedRetries {
				return "", errShed
			}
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(time.Second):
			}
		default:
			return "", fmt.Errorf("POST /v1/notebooks: status %d: %s", code, bytes.TrimSpace(resp))
		}
	}
}

// phaseNames are the SSE phase events a job reports, in pipeline order.
var phaseNames = [...]string{"run", "phase/fd", "phase/stats", "phase/hypo", "phase/tap"}

const (
	phRun = iota
	phFD
	phStats
	phHypo
	phTAP
)

// phase is one SSE phase event: offset and duration on the job
// registry's clock, and when the event reached the client.
type phase struct {
	at, dur time.Duration
	arrived time.Time
	seen    bool
}

// jobEvents is what following one job's SSE stream observed. Times are
// client arrival times.
type jobEvents struct {
	running time.Time
	done    time.Time
	state   string // terminal state: done, failed, cancelled
	errMsg  string
	phases  [len(phaseNames)]phase
	// missing is set when the stream closed without a terminal event
	// and the outcome was resolved through GET /v1/jobs/{id}.
	missing bool
}

// follow reads the job's SSE stream to its terminal event. A stream
// that ends without one (the daemon publishes the terminal event only
// after unlocking the terminal state, so a subscriber can see the state
// first and return) is resolved through the job-status endpoint instead,
// with the completion time taken from that response.
func (c *client) follow(ctx context.Context, id string, ev *jobEvents) error {
	if err := c.stream(ctx, id, ev); err != nil {
		return err
	}
	if ev.state != "" {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ev.missing = true
	return c.resolve(ctx, id, ev)
}

// stream consumes /v1/jobs/{id}/events until a terminal event or EOF.
func (c *client) stream(ctx context.Context, id string, ev *jobEvents) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only stream
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var name, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" && ev.observe(name, data, time.Now()) {
				return nil
			}
			name, data = "", ""
		case strings.HasPrefix(line, "event: "):
			name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("reading events of %s: %w", id, err)
	}
	return nil
}

// observe folds one SSE event into ev and reports whether it was
// terminal.
func (ev *jobEvents) observe(name, data string, at time.Time) bool {
	switch name {
	case "state":
		var s struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(data), &s) != nil {
			return false
		}
		switch s.State {
		case "running":
			if ev.running.IsZero() {
				ev.running = at
			}
		case "cancelled":
			ev.state, ev.done = "cancelled", at
			return true
		}
	case "phase":
		var p struct {
			Name  string  `json:"name"`
			AtMS  float64 `json:"at_ms"`
			DurMS float64 `json:"dur_ms"`
		}
		if json.Unmarshal([]byte(data), &p) != nil {
			return false
		}
		for i, n := range phaseNames {
			if n == p.Name {
				ev.phases[i] = phase{at: msDuration(p.AtMS), dur: msDuration(p.DurMS), arrived: at, seen: true}
			}
		}
	case "done":
		ev.state, ev.done = "done", at
		return true
	case "error":
		ev.state, ev.done, ev.errMsg = "failed", at, data
		return true
	}
	return false
}

// resolve settles a job whose stream carried no terminal event from
// GET /v1/jobs/{id}, polling while the job is still live.
func (c *client) resolve(ctx context.Context, id string, ev *jobEvents) error {
	for {
		body, err := c.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return err
		}
		var st struct {
			State      string `json:"state"`
			StartedMS  int64  `json:"started_unix_ms"`
			FinishedMS int64  `json:"finished_unix_ms"`
			Error      string `json:"error"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("job %s status: %w", id, err)
		}
		switch st.State {
		case "done", "failed", "failed_permanent", "cancelled":
			ev.state = st.State
			if st.State == "failed_permanent" {
				ev.state = "failed"
			}
			ev.errMsg = st.Error
			ev.done = time.UnixMilli(st.FinishedMS)
			if ev.running.IsZero() && st.StartedMS > 0 {
				ev.running = time.UnixMilli(st.StartedMS)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// scrape reads /metrics into a series → value map (series keep their
// label sets verbatim, e.g. `x_bucket{le="0.5"}`).
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(body), nil
}

func parseExposition(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
