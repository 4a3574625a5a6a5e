package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"comparenb/internal/testutil"
)

// stubDaemon serves one job's event stream and status the way the
// daemon does, with the stream's events under the test's control.
func stubDaemon(t *testing.T, events string, finished time.Time) *client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j000001/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, events)
	})
	mux.HandleFunc("GET /v1/jobs/j000001", func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprintf(w, `{"id":"j000001","state":"done","started_unix_ms":%d,"finished_unix_ms":%d}`,
			finished.Add(-time.Second).UnixMilli(), finished.UnixMilli())
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	c := newClient(hs.URL)
	t.Cleanup(c.close)
	return c
}

// TestFollowResolvesMissingTerminalEvent covers the daemon's terminal
// race: the job is done, yet its stream closes without a done event.
// The client must resolve it through the status endpoint, take the
// completion time from there, and flag the stream, not fail the job.
func TestFollowResolvesMissingTerminalEvent(t *testing.T) {
	finished := time.UnixMilli(time.Now().UnixMilli())
	c := stubDaemon(t, "id: 0\nevent: state\ndata: {\"state\":\"queued\"}\n\n"+
		"id: 1\nevent: state\ndata: {\"state\":\"running\"}\n\n"+
		"id: 2\nevent: phase\ndata: {\"name\":\"run\",\"at_ms\":0.5,\"dur_ms\":12.5}\n\n", finished)
	var ev jobEvents
	if err := c.follow(context.Background(), "j000001", &ev); err != nil {
		t.Fatal(err)
	}
	if ev.state != "done" || !ev.missing {
		t.Fatalf("state %q missing %v; want done via the status fallback", ev.state, ev.missing)
	}
	if !ev.done.Equal(finished) {
		t.Errorf("completion %v, want the status response's %v", ev.done, finished)
	}
	if p := ev.phases[phRun]; !p.seen || p.dur != 12500*time.Microsecond {
		t.Errorf("run phase %+v not recorded", p)
	}
	w := &window{out: []outcome{{id: "j000001", due: finished.Add(-2 * time.Second), ev: ev}}}
	c2 := w.tally()
	if c2.Completed != 1 || c2.Failed != 0 || c2.SSEMissing != 1 {
		t.Errorf("tally %+v; want completed=1 failed=0 sse_terminal_missing=1", c2)
	}
	if got := w.out[0].latency(); got != 2*time.Second {
		t.Errorf("latency %v, want 2s from the status response's completion", got)
	}
}

func TestFollowTerminalEvent(t *testing.T) {
	c := stubDaemon(t, "id: 0\nevent: state\ndata: {\"state\":\"running\"}\n\n"+
		"id: 1\nevent: done\ndata: {\"queries\":3}\n\n", time.Now())
	var ev jobEvents
	if err := c.follow(context.Background(), "j000001", &ev); err != nil {
		t.Fatal(err)
	}
	if ev.state != "done" || ev.missing || ev.running.IsZero() {
		t.Errorf("events %+v; want done from the stream", ev)
	}
	c = stubDaemon(t, "id: 0\nevent: error\ndata: {\"error\":\"boom\",\"code\":500}\n\n", time.Now())
	ev = jobEvents{}
	if err := c.follow(context.Background(), "j000001", &ev); err != nil {
		t.Fatal(err)
	}
	if ev.state != "failed" || ev.missing {
		t.Errorf("events %+v; want failed from the stream", ev)
	}
}

// openSockets counts this process's socket descriptors.
func openSockets(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list descriptors: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// smallPlan is fresh-upload on small relations, light enough for -race:
// it still exercises uploads, drops, the state dirs, the set-ups and
// the window.
func smallPlan(t *testing.T) *plan {
	t.Helper()
	p, err := buildPlan("fresh-upload", 3, benchmarkSeconds(t), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := genRelations(rand.New(rand.NewSource(3)), "fresh", freshPool, 300, freshDomains, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.relations = rels
	// Far more sessions than the test waits for, so the cancel always
	// lands inside the window.
	p.order = make([]int, 5000)
	for i := range p.order {
		p.order[i] = i % len(p.requests)
	}
	return p
}

// TestCancelMidRunLeavesNothing cancels a run in its measured window and
// checks that it returns promptly with no daemon goroutine, socket or
// scratch directory left behind.
func TestCancelMidRunLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an in-process daemon")
	}
	p := smallPlan(t)
	root := t.TempDir()
	sockets := openSockets(t)
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runPlan(ctx, options{workdir: root}, p, log.New(io.Discard, "", 0))
		done <- err
	}()
	// Cancel once the last set-up's state dir exists, plus a moment: the
	// scratch dir then holds every set-up's state, and the last daemon
	// is serving the window.
	lastSetup := filepath.Join(root, "run-*", fmt.Sprintf("state-%d", setups-1))
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if m, _ := filepath.Glob(lastSetup); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the run never reached its last set-up")
		}
	}
	time.Sleep(time.Second)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	testutil.WaitGoroutinesSettle(t, goroutines)
	deadline := time.Now().Add(3 * time.Second)
	for openSockets(t) > sockets && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := openSockets(t); n > sockets {
		t.Errorf("%d sockets open after the run, %d before: a listener or connection leaked", n, sockets)
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("scratch entry %s left behind", e.Name())
	}
}

// TestSweepStale removes scratch dirs of processes that no longer exist
// (a run killed outright cannot clean up after itself) and keeps live
// ones.
func TestSweepStale(t *testing.T) {
	root := t.TempDir()
	live := fmt.Sprintf("run-%d-abc", os.Getpid())
	dead := "run-999999999-abc"
	other := "keep-me"
	for _, d := range []string{live, dead, other} {
		if err := os.Mkdir(root+"/"+d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sweepStale(root)
	for d, want := range map[string]bool{live: true, dead: false, other: true} {
		_, err := os.Stat(root + "/" + d)
		if got := err == nil; got != want {
			t.Errorf("%s exists = %v, want %v", d, got, want)
		}
	}
}

// TestProcessAliveTreatsZombiesAsGone: a run killed outright stays a
// zombie until its parent reaps it, and its scratch dir must be swept
// all the same.
func TestProcessAliveTreatsZombiesAsGone(t *testing.T) {
	cmd := exec.Command("sleep", "0")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot start a child process: %v", err)
	}
	defer func() { _ = cmd.Wait() }() // reaps the zombie; its exit status is not under test
	deadline := time.Now().Add(5 * time.Second)
	for processAlive(cmd.Process.Pid) {
		if time.Now().After(deadline) {
			t.Fatal("an exited, unreaped child still counts as alive")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !processAlive(os.Getpid()) {
		t.Error("the running test process counts as gone")
	}
}
