package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricPrefix namespaces every exported metric.
const metricPrefix = "comparenb_"

// WriteTrace exports every recorded span as Chrome trace-event JSON (the
// "JSON Array Format" with a traceEvents wrapper), loadable in Perfetto
// or chrome://tracing: each track becomes a thread (tid) with an "M"
// thread_name metadata event, each span a "X" complete event with
// fractional-microsecond ts/dur so nesting survives rounding. Spans are
// sorted by track, then start time, then longest first so parents
// precede children on ties. The export is built from whatever the sink
// holds, so a trace flushed after an interrupted run is still complete,
// valid JSON.
func (r *Registry) WriteTrace(w io.Writer) error {
	var (
		spans  []spanRecord
		tracks []string
	)
	if r != nil {
		spans, tracks = r.spanRecords()
	}
	// About 90 bytes per event.
	b := make([]byte, 0, 128+96*(len(tracks)+len(spans)))
	b = append(b, `{"displayTimeUnit":"ms",`...)
	if id := r.TraceID(); id != "" {
		b = append(b, `"otherData":{"trace_id":`...)
		b = append(b, quoteJSON(id)...)
		b = append(b, "},"...)
	}
	b = append(b, `"traceEvents":[`...)
	sep := ""
	for tid, label := range tracks {
		b = append(b, sep...)
		b = append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{"name":`...)
		b = append(b, quoteJSON(label)...)
		b = append(b, "}}"...)
		sep = ","
	}
	slices.SortStableFunc(spans, func(x, y spanRecord) int {
		if c := cmp.Compare(x.track, y.track); c != 0 {
			return c
		}
		if c := cmp.Compare(x.start, y.start); c != 0 {
			return c
		}
		return cmp.Compare(y.dur, x.dur)
	})
	// A job's spans carry a handful of distinct names; each is quoted once.
	quoted := make(map[string]string)
	for _, sp := range spans {
		q, ok := quoted[sp.name]
		if !ok {
			q = quoteJSON(sp.name)
			quoted[sp.name] = q
		}
		b = append(b, sep...)
		b = append(b, `{"name":`...)
		b = append(b, q...)
		b = append(b, `,"ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(sp.track), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendFloat(b, float64(sp.start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(sp.dur)/1e3, 'f', 3, 64)
		b = append(b, '}')
		sep = ","
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// WriteMetrics exports the registry as Prometheus-style text exposition.
// Deterministic counters and gauges come first (thread-invariant; safe
// to diff across runs); non-deterministic timing histograms follow under
// an explicit divider. An interrupted run carries a "# interrupted"
// marker on the second line so partial artifacts are recognisable.
func (r *Registry) WriteMetrics(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("# comparenb metrics exposition\n")
	if r.Interrupted() {
		buf.WriteString("# interrupted\n")
	}
	if id := r.TraceID(); id != "" {
		fmt.Fprintf(&buf, "# trace_id %s\n", id)
	}
	if r != nil {
		r.mu.Lock()
		counters := sortedKeys(r.counters)
		gauges := sortedKeys(r.gauges)
		timings := sortedKeys(r.timings)
		r.mu.Unlock()

		buf.WriteString("# --- deterministic counters and gauges ---\n")
		for _, name := range counters {
			full := metricPrefix + name + "_total"
			fmt.Fprintf(&buf, "# TYPE %s counter\n%s %d\n", full, full, r.Counter(name).Value())
		}
		for _, name := range gauges {
			full := metricPrefix + name
			fmt.Fprintf(&buf, "# TYPE %s gauge\n%s %d\n", full, full, r.Gauge(name).Value())
		}

		buf.WriteString("# --- non-deterministic timings (wall clock; varies run to run) ---\n")
		if r.TracingEnabled() {
			fmt.Fprintf(&buf, "# TYPE %sobs_spans_total counter\n%sobs_spans_total %d\n",
				metricPrefix, metricPrefix, r.SpanCount())
			fmt.Fprintf(&buf, "# TYPE %sobs_spans_dropped_total counter\n%sobs_spans_dropped_total %d\n",
				metricPrefix, metricPrefix, r.Dropped())
		}
		for _, name := range timings {
			writeHistogram(&buf, name, r.Timing(name))
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// formatSeconds renders a nanosecond bucket bound as seconds ("1e-06").
func formatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// writeHistogram emits one timing as a Prometheus histogram family.
// Bucket lines are cumulative and sparse — only buckets that received at
// least one observation get a line, plus the mandatory +Inf bound — so a
// 64-bucket histogram costs output proportional to its occupancy.
func writeHistogram(buf *bytes.Buffer, name string, t *Timing) {
	full := metricPrefix + name + "_seconds"
	fmt.Fprintf(buf, "# TYPE %s histogram\n", full)
	counts := t.Buckets()
	cum := int64(0)
	for i := 0; i < TimingBuckets-1; i++ {
		if counts[i] == 0 {
			continue
		}
		cum += counts[i]
		fmt.Fprintf(buf, "%s_bucket{le=\"%s\"} %d\n", full, formatSeconds(int64(BucketBound(i))), cum)
	}
	fmt.Fprintf(buf, "%s_bucket{le=\"+Inf\"} %d\n", full, t.Count())
	fmt.Fprintf(buf, "%s_sum %s\n", full, strconv.FormatFloat(t.Sum().Seconds(), 'g', -1, 64))
	fmt.Fprintf(buf, "%s_count %d\n", full, t.Count())
}

// WriteSummary writes the human-readable per-phase digest that
// -obs-summary prints on stderr: timings first, then the deterministic
// counters and gauges.
func (r *Registry) WriteSummary(w io.Writer) error {
	var buf bytes.Buffer
	if r == nil {
		buf.WriteString("obs: no registry\n")
		_, err := w.Write(buf.Bytes())
		return err
	}
	buf.WriteString("── observability summary ──\n")
	if r.Interrupted() {
		buf.WriteString("status: INTERRUPTED (partial run)\n")
	}
	r.mu.Lock()
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	timings := sortedKeys(r.timings)
	r.mu.Unlock()
	if len(timings) > 0 {
		buf.WriteString("timings (non-deterministic):\n")
		for _, name := range timings {
			t := r.Timing(name)
			mean := time.Duration(0)
			if n := t.Count(); n > 0 {
				mean = t.Sum() / time.Duration(n)
			}
			fmt.Fprintf(&buf, "  %-32s n=%-6d total=%-12s mean=%s\n",
				name, t.Count(), t.Sum().Round(time.Microsecond), mean.Round(time.Microsecond))
		}
	}
	if len(counters)+len(gauges) > 0 {
		buf.WriteString("deterministic counters/gauges:\n")
		for _, name := range counters {
			fmt.Fprintf(&buf, "  %-40s %d\n", name, r.Counter(name).Value())
		}
		for _, name := range gauges {
			fmt.Fprintf(&buf, "  %-40s %d (gauge)\n", name, r.Gauge(name).Value())
		}
	}
	if r.TracingEnabled() {
		fmt.Fprintf(&buf, "trace: %d spans recorded, %d dropped\n", r.SpanCount(), r.Dropped())
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// sortedKeys returns the map's keys in sorted order (the collect-then-
// sort idiom the maporder analyzer requires before emitting).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quoteJSON renders s as a JSON string literal.
func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// json.Marshal of a string cannot fail; keep the exporter total.
		return strconv.Quote(s)
	}
	return string(b)
}

// traceEvent mirrors the Chrome trace-event fields ValidateTrace needs.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// traceFile is the JSON-object trace container.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// tsEpsilonUs absorbs the ±1 ns double-rounding of fractional-µs
// timestamps when checking containment.
const tsEpsilonUs = 0.0015

// ValidateTrace parses data as Chrome trace-event JSON and checks the
// structural invariants the exporter promises: every event well-formed,
// per-track timestamps monotone in emission order, and spans on one
// track properly nested (each pair of spans is containment-or-disjoint).
func ValidateTrace(data []byte) error {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	perTrack := make(map[int][]traceEvent)
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Name == "" {
				return fmt.Errorf("obs: trace event %d has empty name", i)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				return fmt.Errorf("obs: trace event %d (%s) has negative ts/dur", i, ev.Name)
			}
			if last := perTrack[ev.Tid]; len(last) > 0 && ev.Ts < last[len(last)-1].Ts-tsEpsilonUs {
				return fmt.Errorf("obs: track %d timestamps not monotone at event %q (ts %.3f after %.3f)",
					ev.Tid, ev.Name, ev.Ts, last[len(last)-1].Ts)
			}
			perTrack[ev.Tid] = append(perTrack[ev.Tid], ev)
		default:
			return fmt.Errorf("obs: trace event %d has unsupported phase %q", i, ev.Ph)
		}
	}
	tids := make([]int, 0, len(perTrack))
	for tid := range perTrack {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if err := checkNesting(tid, perTrack[tid]); err != nil {
			return err
		}
	}
	return nil
}

// checkNesting verifies containment-or-disjoint for one track's events,
// which must already be sorted by (ts asc, dur desc).
func checkNesting(tid int, evs []traceEvent) error {
	var stack []traceEvent
	for _, ev := range evs {
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.Ts+top.Dur <= ev.Ts+tsEpsilonUs {
				stack = stack[:len(stack)-1]
				continue
			}
			break
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if ev.Ts+ev.Dur > top.Ts+top.Dur+tsEpsilonUs {
				return fmt.Errorf("obs: track %d span %q [%.3f, %.3f] overlaps %q [%.3f, %.3f] without nesting",
					tid, ev.Name, ev.Ts, ev.Ts+ev.Dur, top.Name, top.Ts, top.Ts+top.Dur)
			}
		}
		stack = append(stack, ev)
	}
	return nil
}

// ValidateMetrics checks that data parses as Prometheus-style text
// exposition: every non-comment line is "name[{labels}] value" with a
// float-parsable value, and at least one sample is present.
func ValidateMetrics(data []byte) error {
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return fmt.Errorf("obs: metrics line %d is not \"name value\": %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		if !validMetricName(name) {
			return fmt.Errorf("obs: metrics line %d has malformed name %q", ln+1, name)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("obs: metrics line %d has non-numeric value %q: %w", ln+1, val, err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("obs: metrics exposition contains no samples")
	}
	return nil
}

// validMetricName accepts "name" or "name{label=\"v\",...}" with the
// Prometheus identifier charset.
func validMetricName(name string) bool {
	base := name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return false
		}
		base = name[:i]
	}
	if base == "" {
		return false
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
