package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// maxFlightSpans bounds how many spans one flight entry retains, so the
// recorder's memory stays proportional to its ring sizes rather than to
// the busiest job's trace volume. Truncation is recorded in SpanTotal vs
// len(Spans), never silent.
const maxFlightSpans = 2048

// SpanSnapshot is one closed span lifted out of a per-job registry into
// the server-lifetime flight recorder: offsets become fractional
// microseconds relative to the job registry's start, matching the
// Chrome-trace export unit.
type SpanSnapshot struct {
	Name    string  `json:"name"`
	Track   int32   `json:"track"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// SnapshotSpans copies up to maxFlightSpans recorded spans plus the track
// label table out of the registry. Call after the run has completed;
// returns nils when tracing was never enabled.
func (r *Registry) SnapshotSpans() ([]SpanSnapshot, []string) {
	if r == nil || r.spans.Load() == nil {
		return nil, nil
	}
	return r.snapshot(maxFlightSpans)
}

// snapshot copies up to max recorded spans (every span when max < 0) and
// the track label table, which exists whether or not tracing is on.
func (r *Registry) snapshot(max int) ([]SpanSnapshot, []string) {
	ring := r.spans.Load()
	n := 0
	if ring != nil {
		n = ring.count()
	}
	if max >= 0 && n > max {
		n = max
	}
	out := make([]SpanSnapshot, n)
	for i := range out {
		rec := ring.record(i)
		out[i] = SpanSnapshot{
			Name:    rec.name,
			Track:   rec.track,
			StartUS: float64(rec.start) / 1e3,
			DurUS:   float64(rec.dur) / 1e3,
		}
	}
	r.mu.Lock()
	tracks := append([]string(nil), r.tracks...)
	r.mu.Unlock()
	return out, tracks
}

// FlightEntry is one completed job's record in the flight recorder: its
// span tree snapshot plus the admission-side annotations (queue wait,
// run wall, end-to-end) the per-job registry cannot see. All durations
// are fractional microseconds. ShiftUS is the offset of the job
// registry's start (= span time zero) from admission, so spans and
// annotations share one timeline in the rendered trace.
type FlightEntry struct {
	ID          string            `json:"id"`
	TraceID     string            `json:"trace_id,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	QueueWaitUS float64           `json:"queue_wait_us"`
	RunUS       float64           `json:"run_us"`
	E2EUS       float64           `json:"e2e_us"`
	ShiftUS     float64           `json:"shift_us"`
	Tracks      []string          `json:"tracks,omitempty"`
	Spans       []SpanSnapshot    `json:"spans,omitempty"`
	SpanTotal   int64             `json:"span_total"`
	SpanDropped int64             `json:"span_dropped"`
}

// WriteTrace renders the entry as Chrome trace-event JSON on the
// admission timeline: the job's own tracks keep their tids, and a
// synthetic final "job" track carries the e2e / queue-wait / run
// annotation spans. The output satisfies ValidateTrace (and therefore
// cmd/obscheck): per-track monotone timestamps and proper nesting.
func (e *FlightEntry) WriteTrace(w io.Writer) error { return e.writeTrace(w, true) }

// writeTrace is the one Chrome trace-event writer (the "JSON Array
// Format" with a traceEvents wrapper): an "M" thread_name event per
// track, then every span as an "X" complete event with
// fractional-microsecond ts/dur, sorted by track, then start time, then
// longest first so parents precede children on ties. With jobTrack the
// admission annotations follow on their own final track.
func (e *FlightEntry) writeTrace(w io.Writer, jobTrack bool) error {
	var buf bytes.Buffer
	buf.WriteString("{\"displayTimeUnit\":\"ms\",")
	if e.TraceID != "" {
		fmt.Fprintf(&buf, "\"otherData\":{\"trace_id\":%s},", quoteJSON(e.TraceID))
	}
	buf.WriteString("\"traceEvents\":[")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&buf, format, args...)
	}
	jobTid := len(e.Tracks)
	for tid, label := range e.Tracks {
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, tid, quoteJSON(label))
	}
	if jobTrack {
		emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"job"}}`, jobTid)
	}

	spans := append([]SpanSnapshot(nil), e.Spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Track != spans[j].Track {
			return spans[i].Track < spans[j].Track
		}
		if spans[i].StartUS < spans[j].StartUS {
			return true
		}
		if spans[i].StartUS > spans[j].StartUS {
			return false
		}
		return spans[i].DurUS > spans[j].DurUS
	})
	shift := e.ShiftUS
	if shift < 0 {
		shift = 0
	}
	for _, sp := range spans {
		emit(`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			quoteJSON(sp.Name), sp.Track, shift+sp.StartUS, sp.DurUS)
	}

	if jobTrack {
		// Annotation spans, clamped into [0, e2e] so the job track always
		// nests: queue-wait hugs admission, run follows it.
		e2e := e.E2EUS
		if e2e < 0 {
			e2e = 0
		}
		qw := e.QueueWaitUS
		if qw < 0 {
			qw = 0
		} else if qw > e2e {
			qw = e2e
		}
		runStart := shift
		if runStart < qw {
			runStart = qw
		}
		if runStart > e2e {
			runStart = e2e
		}
		run := e.RunUS
		if run < 0 {
			run = 0
		}
		if runStart+run > e2e {
			run = e2e - runStart
		}
		emit(`{"name":"job/e2e","ph":"X","pid":1,"tid":%d,"ts":0.000,"dur":%.3f}`, jobTid, e2e)
		emit(`{"name":"job/queue-wait","ph":"X","pid":1,"tid":%d,"ts":0.000,"dur":%.3f}`, jobTid, qw)
		emit(`{"name":"job/run","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`, jobTid, runStart, run)
	}
	buf.WriteString("]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// FlightSnapshot is the /debug/flight payload: the most recent entries
// (newest first) and the slowest-by-e2e entries (slowest first) kept
// since the server started, plus the lifetime total.
type FlightSnapshot struct {
	Total   int64         `json:"total"`
	Recent  []FlightEntry `json:"recent"`
	Slowest []FlightEntry `json:"slowest"`
}

// FlightRecorder is a bounded server-lifetime record of completed jobs:
// a ring of the N most recent entries plus a separate slowest-N set
// ordered by end-to-end latency, so tail outliers survive long after
// they scrolled out of the recency window.
type FlightRecorder struct {
	mu        sync.Mutex
	total     int64
	recentCap int
	slowCap   int
	recent    []FlightEntry // ring; head is the next write slot
	head      int
	slowest   []FlightEntry // sorted by E2EUS descending
}

// NewFlightRecorder returns a recorder keeping recentCap most-recent and
// slowCap slowest entries (<= 0 selects 64 and 16).
func NewFlightRecorder(recentCap, slowCap int) *FlightRecorder {
	if recentCap <= 0 {
		recentCap = 64
	}
	if slowCap <= 0 {
		slowCap = 16
	}
	return &FlightRecorder{recentCap: recentCap, slowCap: slowCap}
}

// Add records one completed job. Nil-safe.
func (f *FlightRecorder) Add(e FlightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	if len(f.recent) < f.recentCap {
		f.recent = append(f.recent, e)
		f.head = len(f.recent) % f.recentCap
	} else {
		f.recent[f.head] = e
		f.head = (f.head + 1) % f.recentCap
	}
	i := sort.Search(len(f.slowest), func(i int) bool { return f.slowest[i].E2EUS <= e.E2EUS })
	if i < f.slowCap {
		f.slowest = append(f.slowest, FlightEntry{})
		copy(f.slowest[i+1:], f.slowest[i:])
		f.slowest[i] = e
		if len(f.slowest) > f.slowCap {
			f.slowest = f.slowest[:f.slowCap]
		}
	}
}

// Snapshot copies the recorder's state, recent entries newest first.
// Nil-safe (zero snapshot).
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{Recent: []FlightEntry{}, Slowest: []FlightEntry{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	recent := make([]FlightEntry, 0, len(f.recent))
	for i := 1; i <= len(f.recent); i++ {
		recent = append(recent, f.recent[(f.head-i+len(f.recent))%len(f.recent)])
	}
	return FlightSnapshot{
		Total:   f.total,
		Recent:  recent,
		Slowest: append([]FlightEntry{}, f.slowest...),
	}
}

// Get returns the retained entry for a job id, searching the recency
// ring newest-first and then the slowest set. Nil-safe.
func (f *FlightRecorder) Get(id string) (FlightEntry, bool) {
	if f == nil {
		return FlightEntry{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 1; i <= len(f.recent); i++ {
		e := f.recent[(f.head-i+len(f.recent))%len(f.recent)]
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range f.slowest {
		if e.ID == id {
			return e, true
		}
	}
	return FlightEntry{}, false
}

// flightFile mirrors FlightSnapshot with pointer slices so ValidateFlight
// can distinguish "empty" from "missing".
type flightFile struct {
	Total   *int64         `json:"total"`
	Recent  *[]FlightEntry `json:"recent"`
	Slowest *[]FlightEntry `json:"slowest"`
}

// ValidateFlight checks that data parses as a /debug/flight snapshot and
// that every retained entry is internally consistent: non-empty job id,
// non-negative durations, queue wait bounded by end-to-end, and span
// track indices within the entry's track table.
func ValidateFlight(data []byte) error {
	var ff flightFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ff); err != nil {
		return fmt.Errorf("obs: flight snapshot is not valid JSON: %w", err)
	}
	if ff.Total == nil || ff.Recent == nil || ff.Slowest == nil {
		return fmt.Errorf("obs: flight snapshot missing total/recent/slowest")
	}
	check := func(section string, entries []FlightEntry) error {
		for i, e := range entries {
			if e.ID == "" {
				return fmt.Errorf("obs: flight %s[%d] has empty job id", section, i)
			}
			if e.QueueWaitUS < 0 || e.RunUS < 0 || e.E2EUS < 0 || e.ShiftUS < 0 {
				return fmt.Errorf("obs: flight %s[%d] (%s) has negative duration", section, i, e.ID)
			}
			if e.QueueWaitUS > e.E2EUS+tsEpsilonUs {
				return fmt.Errorf("obs: flight %s[%d] (%s) queue wait %.3f exceeds e2e %.3f",
					section, i, e.ID, e.QueueWaitUS, e.E2EUS)
			}
			if int64(len(e.Spans)) > e.SpanTotal {
				return fmt.Errorf("obs: flight %s[%d] (%s) retains %d spans but claims total %d",
					section, i, e.ID, len(e.Spans), e.SpanTotal)
			}
			for j, sp := range e.Spans {
				if sp.Name == "" {
					return fmt.Errorf("obs: flight %s[%d] (%s) span %d has empty name", section, i, e.ID, j)
				}
				if sp.StartUS < 0 || sp.DurUS < 0 {
					return fmt.Errorf("obs: flight %s[%d] (%s) span %q has negative ts/dur", section, i, e.ID, sp.Name)
				}
				if sp.Track < 0 || int(sp.Track) >= len(e.Tracks) {
					return fmt.Errorf("obs: flight %s[%d] (%s) span %q on unknown track %d",
						section, i, e.ID, sp.Name, sp.Track)
				}
			}
		}
		return nil
	}
	if err := check("recent", *ff.Recent); err != nil {
		return err
	}
	return check("slowest", *ff.Slowest)
}
