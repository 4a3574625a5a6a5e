// Command perfbench is comparenbd's end-to-end benchmark. It runs the
// daemon inside its own process, wired the way cmd/comparenbd wires it,
// drives one workload through the public HTTP/SSE API, checks every
// notebook against a one-shot reference, and prints one JSON result as
// the last line of standard output:
//
//	perfbench --workload shared-explore --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer split. See
// NOTES.md for the workloads, the metrics and what they should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command-line settings of one run.
type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	exploreRate float64
	workdir     string
	spansOut    string
}

// setups is how many daemons a run sets up one after the other;
// setup_s is the median of their set-up times.
const setups = 3

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: shared-explore or fresh-upload")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the workload's relations, request mix and arrivals")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured window at the parent's speed; fixes the job count")
	fs.IntVar(&traceFlag, "trace", 0, "1 = per-layer run (untraced pass, then traced pass and replays)")
	fs.Float64Var(&o.exploreRate, "explore-rate", 6, "shared-explore Poisson arrival rate, jobs/s")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "root of the per-run scratch directories")
	fs.StringVar(&o.spansOut, "spans-out", "", "with --trace 1, write the benchmark's spans to <prefix>-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "perfbench: ", 0)
	if traceFlag != 0 && traceFlag != 1 {
		logger.Print("--trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	res, err := runBenchmark(ctx, o, logger)
	if err != nil {
		logger.Print(err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		logger.Print(err)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	counts  counts
	metrics []metric
}

// printResult writes the counts line and, last, the JSON result line.
func printResult(stdout io.Writer, res *result) error {
	c := res.counts
	if _, err := fmt.Fprintf(stdout, "counts: sent=%d completed=%d failed=%d shed=%d mismatched=%d sse_terminal_missing=%d\n",
		c.Sent, c.Completed, c.Failed, c.Shed, c.Mismatched, c.SSEMissing); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   c.Failed == 0 && c.Shed == 0 && c.Mismatched == 0 && c.Completed == c.Sent,
		Attempted: c.Sent,
		Failed:    c.Failed + c.Shed + c.Mismatched,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runBenchmark generates the workload's inputs and runs it.
func runBenchmark(ctx context.Context, o options, log *log.Logger) (*result, error) {
	p, err := buildPlan(o.workload, o.seed, o.seconds, o.exploreRate, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return runPlan(ctx, o, p, log)
}

// runPlan runs a generated workload. Every daemon it starts is stopped
// and its scratch directory removed before it returns, on every path.
func runPlan(ctx context.Context, o options, p *plan, log *log.Logger) (res *result, err error) {
	sc, err := newScratch(o.workdir)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, sc.remove()) }()
	log.Printf("%s seed=%d jobs=%d nproc=%d GOMAXPROCS=%d %s",
		p.workload, o.seed, len(p.order), runtime.NumCPU(), p.nproc, runtime.Version())

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	refs, err := references(ctx, p)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		return runUntraced(ctx, p, sc, refs, log)
	}
	return runTraced(ctx, p, sc, refs, tr, o.spansOut, log)
}

// pass is one set-up daemon plus its measured window.
type pass struct {
	d        *daemon
	stateDir string
	setup    time.Duration
}

// startPass sets up daemon k, on an empty state dir of its own when the
// workload is durable.
func startPass(ctx context.Context, p *plan, sc *scratch, k int, tr *tracer) (*pass, error) {
	dir := ""
	if p.durable {
		dir = sc.path(fmt.Sprintf("state-%d", k))
	}
	d, setup, err := setUp(ctx, p, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &pass{d: d, stateDir: dir, setup: setup}, nil
}

// end stops the pass's daemon and removes its state copy.
func (ps *pass) end() error {
	err := ps.d.stop()
	if ps.stateDir != "" {
		err = errors.Join(err, os.RemoveAll(ps.stateDir))
	}
	return err
}

// runUntraced sets up setups times (setup_s is the median), measures
// the window on the last daemon and verifies every notebook.
func runUntraced(ctx context.Context, p *plan, sc *scratch, refs []map[string][]byte, log *log.Logger) (res *result, err error) {
	var durs []float64
	var ps *pass
	for k := 0; k < setups; k++ {
		if ps, err = startPass(ctx, p, sc, k, nil); err != nil {
			return nil, err
		}
		durs = append(durs, ps.setup.Seconds())
		if k < setups-1 {
			if err := ps.end(); err != nil {
				return nil, err
			}
		}
	}
	defer func() { err = errors.Join(err, ps.end()) }()
	w, err := measure(ctx, ps.d, p)
	if err != nil {
		return nil, err
	}
	c := w.tally()
	if c.Mismatched, err = verify(ctx, ps.d.client, w, refs); err != nil {
		return nil, err
	}
	log.Printf("set-ups %v s; %d latency samples, %d beyond p90",
		durs, c.Completed, beyond(c.Completed, 0.9))
	setup := time.Duration(median(durs) * float64(time.Second))
	return &result{counts: c, metrics: w.e2eMetrics(setup)}, nil
}

// runTraced measures the workload untraced (the overhead baseline),
// then traced: spans around the benchmark's own layer calls, the jobs'
// span trees and reports, /metrics around the window, and a replay of
// the workload's requests through the layers' entry points.
func runTraced(ctx context.Context, p *plan, sc *scratch, refs []map[string][]byte, tr *tracer, spansOut string, log *log.Logger) (*result, error) {
	t := &tracedRun{tr: tr}
	var total counts
	for k, traced := range []bool{false, true} {
		var ptr *tracer
		if traced {
			ptr = tr
		}
		ps, err := startPass(ctx, p, sc, k, ptr)
		if err != nil {
			return nil, err
		}
		c, err := tracedPass(ctx, p, ps, refs, t, traced)
		if err = errors.Join(err, ps.end()); err != nil {
			return nil, err
		}
		total.add(c)
	}
	rs, err := replay(ctx, p, sc.path("replay"), tr)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	t.replay = rs
	tr.addJobs(t.traced)
	log.Print(formatSplit(p.workload, tr.split()))
	if spansOut != "" {
		file := spansOut + "-" + p.workload + ".json"
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(file, tr); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return &result{counts: total, metrics: layerMetrics(p, t)}, nil
}

// tracedPass measures one window of a traced run and verifies it; the
// traced window also gathers the daemon-side figures.
func tracedPass(ctx context.Context, p *plan, ps *pass, refs []map[string][]byte, t *tracedRun, traced bool) (counts, error) {
	var before struct {
		bytes int64
		lines int
	}
	if traced {
		m, err := ps.d.client.scrape(ctx)
		if err != nil {
			return counts{}, err
		}
		t.before = m
		if ps.stateDir != "" {
			if before.bytes, before.lines, err = dirUsage(ps.stateDir); err != nil {
				return counts{}, err
			}
		}
	}
	w, err := measure(ctx, ps.d, p)
	if err != nil {
		return counts{}, err
	}
	c := w.tally()
	if c.Mismatched, err = verify(ctx, ps.d.client, w, refs); err != nil {
		return counts{}, err
	}
	if !traced {
		t.untraced = w
		return c, nil
	}
	t.traced = w
	if t.jobs, err = collectJobTraces(ctx, ps.d.client, w); err != nil {
		return counts{}, err
	}
	if t.after, err = ps.d.client.scrape(ctx); err != nil {
		return counts{}, err
	}
	if ps.stateDir != "" {
		b, l, err := dirUsage(ps.stateDir)
		if err != nil {
			return counts{}, err
		}
		t.stateBytes, t.stateRecords = b-before.bytes, l-before.lines
	}
	return c, nil
}
