package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"comparenb/internal/durable"
	"comparenb/internal/obs"
	"comparenb/internal/pipeline"
	"comparenb/internal/table"
)

// span is one interval the benchmark recorded around its own call into
// a layer, on the tracer's clock. job is the measured job's index, or -1
// for spans outside the measured window (set-up uploads, replays).
type span struct {
	name string
	job  int
	iv   interval
}

// tracer keeps the benchmark's spans in memory; they are written out
// once the run is over. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(name string, job int, start, end time.Time) {
	if t == nil {
		return
	}
	sp := span{name: name, job: job, iv: interval{start.Sub(t.origin), end.Sub(t.origin)}}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// addJobs records each completed job's client-side span tree:
//
//	client/job                 latency clock start → done event
//	  bench/send_lag           open loop: due → actual send
//	  server/upload            POST /v1/relations round trip
//	  server/admit             POST /v1/notebooks round trip
//	  server/queue_wait        202 → SSE state:running
//	  pipeline/run             the job's run span, ending when its SSE
//	                           phase event arrived
//	    pipeline/phase/{fd,stats,hypo,tap}
//	  server/post_run          run event → done event: render, persist,
//	                           journal, publish
//
// The run span is anchored on its own event's arrival, not on the
// running event's: a job admitted straight into a free worker starts
// before the client subscribes, and the replayed running event then
// arrives late by the subscription's round trip.
func (t *tracer) addJobs(w *window) {
	for i := range w.out {
		o := &w.out[i]
		if !o.completed() {
			continue
		}
		t.add("client/job", i, o.due, o.ev.done)
		if o.sent.After(o.due) {
			t.add("bench/send_lag", i, o.due, o.sent)
		}
		if o.uploadRT > 0 {
			t.add("server/upload", i, o.sent, o.sent.Add(o.uploadRT))
		}
		t.add("server/admit", i, o.accepted.Add(-o.admitRT), o.accepted)
		run := o.ev.phases[phRun]
		if o.ev.running.IsZero() || !run.seen {
			continue
		}
		t.add("server/queue_wait", i, o.accepted, o.ev.running)
		runStart := run.arrived.Add(-run.dur)
		t.add("pipeline/run", i, runStart, run.arrived)
		for ph := phFD; ph <= phTAP; ph++ {
			if p := o.ev.phases[ph]; p.seen {
				at := runStart.Add(p.at - run.at)
				t.add("pipeline/"+phaseNames[ph], i, at, at.Add(p.dur))
			}
		}
		t.add("server/post_run", i, run.arrived, o.ev.done)
	}
}

// parentName is the span-tree shape addJobs records.
func parentName(name string) string {
	switch {
	case name == "client/job":
		return ""
	case strings.HasPrefix(name, "pipeline/phase/"):
		return "pipeline/run"
	default:
		return "client/job"
	}
}

// splitRow is one layer of the traced split.
type splitRow struct {
	name           string
	totalMS, selfM float64 // p50 over jobs
	jobs           int
}

// split computes, per span name, the p50 over measured jobs of the
// span's duration and of its self time (duration minus what its
// children cover).
func (t *tracer) split() []splitRow {
	byJob := map[int][]span{}
	var jobs []int
	for _, sp := range t.spans {
		if sp.job < 0 {
			continue
		}
		if _, ok := byJob[sp.job]; !ok {
			jobs = append(jobs, sp.job)
		}
		byJob[sp.job] = append(byJob[sp.job], sp)
	}
	sort.Ints(jobs)
	total := map[string][]float64{}
	self := map[string][]float64{}
	var names []string
	for _, j := range jobs {
		spans := byJob[j]
		for _, sp := range spans {
			var kids []interval
			for _, c := range spans {
				if parentName(c.name) == sp.name {
					kids = append(kids, c.iv)
				}
			}
			if _, ok := total[sp.name]; !ok {
				names = append(names, sp.name)
			}
			total[sp.name] = append(total[sp.name], ms(sp.iv.hi-sp.iv.lo))
			self[sp.name] = append(self[sp.name], ms(selfTime(sp.iv, kids)))
		}
	}
	sort.Strings(names)
	rows := make([]splitRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, splitRow{name: n, totalMS: median(total[n]), selfM: median(self[n]), jobs: len(total[n])})
	}
	return rows
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (one
// track per measured job, track 0 for everything else), loadable in
// Perfetto.
func (t *tracer) writeChromeTrace(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].job != spans[j].job {
			return spans[i].job < spans[j].job
		}
		if spans[i].iv.lo != spans[j].iv.lo {
			return spans[i].iv.lo < spans[j].iv.lo
		}
		return spans[i].iv.hi > spans[j].iv.hi
	})
	for i, sp := range spans {
		if i > 0 {
			buf.WriteByte(',')
		}
		name, err := json.Marshal(sp.name)
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			name, sp.job+1, float64(sp.iv.lo)/1e3, float64(sp.iv.hi-sp.iv.lo)/1e3)
	}
	buf.WriteString("]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// jobTraceStats is what the traced pass read back from the daemon for
// each completed job: its span tree and its report.
type jobTraceStats struct {
	spans      []float64 // span count per job
	cubeBuild  []float64 // ms of engine/cube/build spans per job
	testsTotal int       // insights tested, summed over jobs
	jobs       int
}

// collectJobTraces fetches every completed job's span tree (the trace
// artifact: the full per-job tree, where /v1/jobs/{id}/trace keeps at
// most 2048 spans of the jobs still in the flight recorder) and its
// report.
func collectJobTraces(ctx context.Context, c *client, w *window) (*jobTraceStats, error) {
	st := &jobTraceStats{}
	for i := range w.out {
		o := &w.out[i]
		if !o.completed() {
			continue
		}
		body, err := c.get(ctx, "/v1/jobs/"+o.id+"/result?format=trace")
		if err != nil {
			return nil, err
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &tf); err != nil {
			return nil, fmt.Errorf("trace of %s: %w", o.id, err)
		}
		n, build := 0, 0.0
		for _, e := range tf.TraceEvents {
			if e.Ph != "X" {
				continue
			}
			n++
			if e.Name == "engine/cube/build" {
				build += e.Dur / 1e3
			}
		}
		body, err = c.get(ctx, "/v1/jobs/"+o.id+"/result?format=report")
		if err != nil {
			return nil, err
		}
		var rep struct {
			Counts pipeline.Counts `json:"counts"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("report of %s: %w", o.id, err)
		}
		st.spans = append(st.spans, float64(n))
		st.cubeBuild = append(st.cubeBuild, build)
		st.testsTotal += rep.Counts.InsightsEnumerated
		st.jobs++
	}
	return st, nil
}

// replayStats holds the layer calls the traced run replays after its
// window, one sample per call.
type replayStats struct {
	parse, encode, render []float64 // ms
	allocMB               []float64 // MiB allocated by GenerateContext
	journalAppend         []float64 // ms per Journal.Append, fsync included
	artifactWrite         []float64 // ms per job: Store.WriteFile of all its artifacts
}

// replaySamples is how many requests the replay runs per workload.
const replaySamples = 9

// replay calls the exported entry points of table, pipeline and durable
// directly on the workload's inputs, alone in the process, timing each
// call: parse and first encode of the relation, a traced
// GenerateContext (and the bytes it allocates), RenderArtifacts, and the
// journal appends and artifact writes a durable daemon would make for
// the job, in a scratch state dir.
func replay(ctx context.Context, p *plan, dir string, tr *tracer) (rs *replayStats, err error) {
	journalPath, err := durable.StateDirLayout(dir)
	if err != nil {
		return nil, err
	}
	store, err := durable.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	jl, err := durable.OpenJournal(journalPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := jl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rs = &replayStats{}
	appendTimed := func(rec durable.Record) error {
		t := time.Now()
		if err := jl.Append(rec); err != nil {
			return err
		}
		tr.add("durable/journal_append", -1, t, time.Now())
		rs.journalAppend = append(rs.journalAppend, ms(time.Since(t)))
		return nil
	}
	reps := (replaySamples + len(p.requests) - 1) / len(p.requests)
	for n := 0; n < reps*len(p.requests); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := p.requests[n%len(p.requests)]
		rel, ok := p.relationByName(r.Relation)
		if !ok {
			return nil, fmt.Errorf("request names unknown relation %q", r.Relation)
		}
		t0 := time.Now()
		tab, _, err := table.FromCSV(bytes.NewReader(rel.csv), table.CSVOptions{Name: rel.name, MaxRows: 1 << 20})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tab.Encoded()
		t2 := time.Now()
		cfg := r.config()
		cfg.Obs = obs.New()
		cfg.Obs.EnableTracing(0)
		a0 := heapAllocBytes()
		res, err := pipeline.GenerateContext(ctx, tab, cfg)
		if err != nil {
			return nil, err
		}
		a1 := heapAllocBytes()
		t3 := time.Now()
		arts, err := pipeline.RenderArtifacts(res, cfg.Obs)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		tr.add("table/parse", -1, t0, t1)
		tr.add("table/encode", -1, t1, t2)
		tr.add("pipeline/generate", -1, t2, t3)
		tr.add("pipeline/render", -1, t3, t4)
		rs.parse = append(rs.parse, ms(t1.Sub(t0)))
		rs.encode = append(rs.encode, ms(t2.Sub(t1)))
		rs.render = append(rs.render, ms(t4.Sub(t3)))
		rs.allocMB = append(rs.allocMB, float64(a1-a0)/(1<<20))

		id := fmt.Sprintf("r%06d", n+1)
		reqJSON, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		if err := appendTimed(durable.Record{Type: durable.RecJobAdmit, ID: id, Tenant: r.Tenant, Request: reqJSON}); err != nil {
			return nil, err
		}
		if err := appendTimed(durable.Record{Type: durable.RecJobStart, ID: id, Attempt: 1}); err != nil {
			return nil, err
		}
		metas := make(map[string]durable.ArtifactMeta, len(arts))
		w0 := time.Now()
		for _, a := range arts {
			meta, err := store.WriteFile(path.Join(durable.ArtifactsDir, id, a.Key), a.Data)
			if err != nil {
				return nil, err
			}
			metas[a.Key] = meta
		}
		w1 := time.Now()
		tr.add("durable/artifact_write", -1, w0, w1)
		rs.artifactWrite = append(rs.artifactWrite, ms(w1.Sub(w0)))
		if err := appendTimed(durable.Record{Type: durable.RecJobDone, ID: id, Artifacts: metas}); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Series of the daemon's /metrics the per-layer figures read.
const (
	seriesHits    = "comparenb_engine_cache_hits_total"
	seriesRollups = "comparenb_engine_cache_rollup_hits_total"
	seriesMisses  = "comparenb_engine_cache_misses_total"
	seriesDropped = "comparenb_obs_spans_dropped_total"
	e2eBucketPfx  = `comparenb_server_job_e2e_seconds_bucket{le="`
)

// histogramQuantile is the nearest-rank q-quantile of the observations
// a Prometheus histogram gained between two scrapes, as the upper bound
// of the bucket holding that rank. Bucket lines are cumulative and
// sparse: a bound missing from a scrape holds the count of the nearest
// bound below it.
func histogramQuantile(before, after map[string]float64, prefix string, q float64) (float64, bool) {
	type bucket struct {
		le        float64
		cumBefore float64
		cumAfter  float64
	}
	var bs []bucket
	bounds := map[float64]bool{}
	for _, m := range []map[string]float64{before, after} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
			v := math.Inf(1)
			if le != "+Inf" {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				v = f
			}
			if !bounds[v] {
				bounds[v] = true
				bs = append(bs, bucket{le: v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	label := func(le float64) string {
		if math.IsInf(le, 1) {
			return prefix + `+Inf"}`
		}
		return prefix + strconv.FormatFloat(le, 'g', -1, 64) + `"}`
	}
	var lastB, lastA float64
	for i := range bs {
		if v, ok := before[label(bs[i].le)]; ok {
			lastB = v
		}
		if v, ok := after[label(bs[i].le)]; ok {
			lastA = v
		}
		bs[i].cumBefore, bs[i].cumAfter = lastB, lastA
	}
	if len(bs) == 0 {
		return 0, false
	}
	n := bs[len(bs)-1].cumAfter - bs[len(bs)-1].cumBefore
	if n <= 0 {
		return 0, false
	}
	rank := float64(rankIndex(int(n), q) + 1)
	for _, b := range bs {
		if b.cumAfter-b.cumBefore >= rank && !math.IsInf(b.le, 1) {
			return b.le, true
		}
	}
	return 0, false
}

// tracedRun is everything the traced pass gathered.
type tracedRun struct {
	untraced, traced *window
	jobs             *jobTraceStats
	before, after    map[string]float64 // /metrics around the window
	stateBytes       int64              // durable: state-dir growth
	stateRecords     int                // durable: journal lines added
	replay           *replayStats
	tr               *tracer
}

// layerMetrics derives every per-layer figure from a traced run.
func layerMetrics(p *plan, t *tracedRun) []metric {
	w := t.traced
	var admit, queue, postRun, upload, run, hypo, stats, fd, tapPh, submitToDone []float64
	genLag := 0.0
	for i := range w.out {
		o := &w.out[i]
		if !o.completed() {
			continue
		}
		admit = append(admit, ms(o.admitRT))
		submitToDone = append(submitToDone, ms(o.ev.done.Sub(o.accepted.Add(-o.admitRT))))
		if p.arrivals != nil {
			genLag = math.Max(genLag, ms(o.sent.Sub(o.due)))
		}
		ph := o.ev.phases
		if !o.ev.running.IsZero() {
			queue = append(queue, ms(o.ev.running.Sub(o.accepted)))
		}
		if ph[phRun].seen {
			postRun = append(postRun, ms(o.ev.done.Sub(ph[phRun].arrived)))
		}
		for k, dst := range [...]*[]float64{phRun: &run, phFD: &fd, phStats: &stats, phHypo: &hypo, phTAP: &tapPh} {
			if ph[k].seen {
				*dst = append(*dst, ms(ph[k].dur))
			}
		}
	}
	for _, sp := range t.tr.spans {
		if sp.name == "server/upload" {
			upload = append(upload, ms(sp.iv.hi-sp.iv.lo))
		}
	}
	delta := func(series string) float64 { return t.after[series] - t.before[series] }
	completed := float64(max(t.jobs.jobs, 1))
	hits, rollups, misses := delta(seriesHits), delta(seriesRollups), delta(seriesMisses)
	hitRatio := 0.0
	if lookups := hits + rollups + misses; lookups > 0 {
		hitRatio = (hits + rollups) / lookups
	}
	serverP50, _ := histogramQuantile(t.before, t.after, e2eBucketPfx, 0.5)
	clientP50 := median(submitToDone)
	p50Err := 0.0
	if clientP50 > 0 {
		p50Err = math.Abs(serverP50*1e3-clientP50) / clientP50 * 100
	}
	untracedP50 := median(t.untraced.latencies())
	overhead := 0.0
	if untracedP50 > 0 {
		overhead = (median(w.latencies()) - untracedP50) / untracedP50 * 100
	}
	missing := t.untraced.tally().SSEMissing + w.tally().SSEMissing
	rs := t.replay
	return []metric{
		{"server.admit_ms", "ms", median(admit)},
		{"server.queue_wait_ms", "ms", median(queue)},
		{"server.post_run_ms", "ms", median(postRun)},
		{"server.upload_ms", "ms", median(upload)},
		{"server.sse_terminal_missing", "count", float64(missing)},
		{"pipeline.run_ms", "ms", median(run)},
		{"pipeline.hypo_ms", "ms", median(hypo)},
		{"pipeline.render_ms", "ms", median(rs.render)},
		{"pipeline.alloc_mb_per_job", "MiB", median(rs.allocMB)},
		{"stats.phase_ms", "ms", median(stats)},
		{"stats.tests_per_job", "count", float64(t.jobs.testsTotal) / completed},
		{"engine.fd_ms", "ms", median(fd)},
		{"engine.cube_build_ms", "ms", median(t.jobs.cubeBuild)},
		{"engine.cubes_built_per_job", "count", misses / completed},
		{"engine.cache_hit_ratio", "ratio", hitRatio},
		{"table.parse_ms", "ms", median(rs.parse)},
		{"table.encode_ms", "ms", median(rs.encode)},
		{"tap.phase_ms", "ms", median(tapPh)},
		{"durable.journal_append_ms", "ms", median(rs.journalAppend)},
		{"durable.artifact_write_ms", "ms", median(rs.artifactWrite)},
		{"durable.bytes_per_job", "B", float64(t.stateBytes) / completed},
		{"durable.records_per_job", "count", float64(t.stateRecords) / completed},
		{"obs.spans_per_job", "count", median(t.jobs.spans)},
		{"obs.spans_dropped", "count", delta(seriesDropped)},
		{"obs.trace_overhead_pct", "%", overhead},
		{"obs.server_p50_error_pct", "%", p50Err},
		{"bench.gen_lag_max_ms", "ms", genLag},
	}
}

// formatSplit renders the traced split: per layer, the p50 of its span
// and of its self time, and its self time's share of the job p50.
func formatSplit(workload string, rows []splitRow) string {
	jobP50 := 0.0
	for _, r := range rows {
		if r.name == "client/job" {
			jobP50 = r.totalMS
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traced split (%s), p50 over jobs:\n", workload)
	fmt.Fprintf(&b, "  %-24s %10s %10s %7s %6s\n", "span", "total_ms", "self_ms", "self%", "jobs")
	for _, r := range rows {
		share := 0.0
		if jobP50 > 0 {
			share = r.selfM / jobP50 * 100
		}
		fmt.Fprintf(&b, "  %-24s %10.3f %10.3f %6.1f%% %6d\n", r.name, r.totalMS, r.selfM, share, r.jobs)
	}
	return b.String()
}

// writeSpans saves the benchmark's spans as a Chrome trace.
func writeSpans(file string, tr *tracer) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := tr.writeChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
