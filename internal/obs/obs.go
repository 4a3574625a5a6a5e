// Package obs is the zero-dependency observability layer for a
// notebook-generation run: hierarchical wall-clock spans (run → phase →
// sub-stage → kernel), a registry of deterministic counters and gauges,
// and non-deterministic timing histograms, kept strictly apart.
//
// Design contract (enforced by internal/pipeline tests):
//
//   - A Registry is run-scoped: create one per Generate call. Counters
//     start at zero and are never reset, so report fields read from the
//     registry are exact per-run totals.
//   - Deterministic counters and gauges depend only on the Config and
//     input data — never on goroutine scheduling or wall clock — so
//     DeterministicState is byte-identical across Config.Threads.
//     Anything timing-derived goes into a Timing histogram instead.
//   - Every method is nil-safe on a nil *Registry, nil *Counter, nil
//     *Gauge and nil *Timing, and span collection is a no-op until
//     EnableTracing is called: a run without observability pays one
//     atomic pointer load per StartSpan and nothing else.
//   - Span collection is allocation-light and bounded: EnableTracing sets
//     a span cap, and the sink grows toward it in chunks of 1,024 records
//     as spans arrive; past the cap, later spans are counted as dropped
//     rather than grown into.
//
// Trace tracks mirror goroutines: spans on one track are opened and
// closed LIFO by a single goroutine, which is what makes the exported
// Chrome trace properly nested per track. Worker pools fork a fresh
// track per goroutine with ForkTrack.
package obs

import (
	"context"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone non-negative sum updated with atomic adds.
// Counters hold deterministic quantities only: the multiset of Add calls
// must be invariant under goroutine scheduling, so the sum is
// thread-invariant even though the add order is not.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a standalone counter not attached to any registry.
// Components that must count before a registry exists (e.g. a cube cache
// built outside a pipeline run) start with one of these and rebind to a
// registry via their Instrument hook.
func NewCounter() *Counter { return &Counter{} }

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins deterministic value (e.g. the effective
// permutation count after shedding). Like counters, gauges must be set
// to scheduling-invariant values.
type Gauge struct{ v atomic.Int64 }

// Set stores n. Nil-safe.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// TimingBuckets is the fixed bucket count of every Timing histogram.
// Bucket i (for 0 < i < TimingBuckets-1) covers durations in
// (2^(i-1), 2^i] nanoseconds; bucket 0 covers [0, 1] ns and the last
// bucket is the +Inf tail for anything past 2^62 ns (~146 years). Fixed
// power-of-two boundaries make Observe a single bits.Len64 — no search,
// no per-histogram configuration — and let scrapers compute quantiles
// from the exported buckets without the server picking percentiles.
const TimingBuckets = 64

// bucketIndex maps a non-negative nanosecond duration onto its bucket.
func bucketIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	// bits.Len64(ns-1) is ceil(log2(ns)) for ns >= 2, so an exact power
	// of two 2^k lands in bucket k — the bucket whose upper bound it is.
	b := bits.Len64(uint64(ns) - 1)
	if b >= TimingBuckets {
		return TimingBuckets - 1
	}
	return b
}

// BucketBound returns bucket i's inclusive upper bound in nanoseconds.
// The final bucket is the +Inf tail and returns MaxInt64 as a sentinel.
func BucketBound(i int) time.Duration {
	if i <= 0 {
		return 1
	}
	if i >= TimingBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(int64(1) << uint(i))
}

// Timing is a fixed-boundary log2-bucket histogram of wall-clock
// durations. Observe is lock-free and allocation-free: one bits.Len64
// plus three atomic adds. Timings are the non-deterministic half of the
// registry: they vary run to run and thread count to thread count, and
// are therefore exported in a separate section and excluded from
// DeterministicState.
type Timing struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [TimingBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
// Nil-safe, lock-free, allocation-free.
func (t *Timing) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.sumNs.Add(ns)
	t.buckets[bucketIndex(ns)].Add(1)
}

// Count returns the number of observations.
func (t *Timing) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Sum returns the total observed duration.
func (t *Timing) Sum() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sumNs.Load())
}

// Buckets snapshots the per-bucket counts (not cumulative). The snapshot
// is not atomic with respect to concurrent Observe calls; each bucket is
// individually consistent. Returns the zero array for a nil timing.
func (t *Timing) Buckets() [TimingBuckets]int64 {
	var out [TimingBuckets]int64
	if t == nil {
		return out
	}
	for i := range t.buckets {
		out[i] = t.buckets[i].Load()
	}
	return out
}

// maxTracks bounds trace-track allocation so runaway pool forking cannot
// grow the track table without bound; spans past the cap are untracked.
const maxTracks = 4096

// defaultSpanCapacity is the EnableTracing span cap when the caller
// passes capacity <= 0 (64Ki spans, 2.5 MiB if every chunk fills).
const defaultSpanCapacity = 1 << 16

// Registry is the per-run observability hub. The zero value is not
// usable; call New. All methods are safe for concurrent use and nil-safe
// on a nil receiver.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
	tracks   []string // index = track id; track 0 is the run's main track
	trace    string   // request-scoped trace identity; empty when untraced

	spans       atomic.Pointer[spanRing]
	spanObs     atomic.Pointer[SpanObserver]
	interrupted atomic.Bool
}

// New returns an empty run-scoped registry with tracing disabled.
func New() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
		tracks:   []string{"run"},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (whose methods are no-ops) on a nil registry. Hot paths should
// fetch the handle once and reuse it rather than look up per event.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Timing(name string) *Timing {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timings[name]
	if t == nil {
		t = &Timing{}
		r.timings[name] = t
	}
	return t
}

// EnableTracing arms span collection with room for capacity spans (<= 0
// selects the default), allocated in chunks as spans arrive. Call before
// the run starts; enabling mid-run is not synchronised with in-flight
// StartSpan calls. Nil-safe; repeat calls keep the first sink.
func (r *Registry) EnableTracing(capacity int) {
	if r == nil {
		return
	}
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	r.spans.CompareAndSwap(nil, newSpanRing(capacity))
}

// TracingEnabled reports whether EnableTracing has been called.
func (r *Registry) TracingEnabled() bool {
	return r != nil && r.spans.Load() != nil
}

// NewTrack allocates a fresh trace track (one per goroutine that emits
// spans) and returns its id. Returns -1 — meaning "untracked", which
// StartSpan treats as a no-op — on a nil registry, when tracing is
// disabled, or past the track cap.
func (r *Registry) NewTrack(label string) int32 {
	if !r.TracingEnabled() {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tracks) >= maxTracks {
		return -1
	}
	id := int32(len(r.tracks))
	r.tracks = append(r.tracks, label+"#"+strconv.Itoa(len(r.tracks)))
	return id
}

// SetTraceID binds a request-scoped trace identity (a W3C trace-id hex
// string) to the registry. The trace ID surfaces only in trace and
// metrics exports — never in DeterministicState or any notebook/report
// bytes — so correlation never perturbs determinism-gated artifacts.
// Nil-safe.
func (r *Registry) SetTraceID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace = id
	r.mu.Unlock()
}

// TraceID returns the bound trace identity ("" when none). Nil-safe.
func (r *Registry) TraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// MarkInterrupted records that the run was cancelled or ran out of
// budget, so exported artifacts carry the partial-result marker.
func (r *Registry) MarkInterrupted() {
	if r != nil {
		r.interrupted.Store(true)
	}
}

// Interrupted reports whether MarkInterrupted was called.
func (r *Registry) Interrupted() bool {
	return r != nil && r.interrupted.Load()
}

// DeterministicState snapshots every counter and gauge into a flat map —
// the exact state that must be invariant across Config.Threads. Timings
// and spans are deliberately excluded. Returns nil on a nil registry.
func (r *Registry) DeterministicState() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges))
	for name := range r.counters {
		names = append(names, "counter/"+name)
	}
	for name := range r.gauges {
		names = append(names, "gauge/"+name)
	}
	sort.Strings(names)
	out := make(map[string]int64, len(names))
	for _, key := range names {
		if name, ok := trimPrefix(key, "counter/"); ok {
			out[key] = r.counters[name].Value()
		} else if name, ok := trimPrefix(key, "gauge/"); ok {
			out[key] = r.gauges[name].Value()
		}
	}
	r.mu.Unlock()
	return out
}

// trimPrefix is strings.TrimPrefix with an ok flag, avoiding a strings
// import for two call sites.
func trimPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// ctxKey keys the registry+track pair in a context.
type ctxKey struct{}

// ctxVal is the single value threaded through contexts: which registry
// to report to and which trace track this goroutine writes spans on.
type ctxVal struct {
	reg   *Registry
	track int32
}

// NewContext returns ctx carrying the registry on the main track.
// A nil registry returns ctx unchanged.
func NewContext(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{reg: r, track: 0})
}

// FromContext returns the registry carried by ctx, or nil. A nil ctx is
// tolerated (several kernels accept one and substitute Background later).
func FromContext(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.reg
	}
	return nil
}

// ForkTrack returns ctx rebound to a fresh trace track, for handing to a
// worker goroutine so its spans do not interleave with the parent's on
// one track. When tracing is disabled (the common case) it returns ctx
// unchanged at the cost of one context lookup.
func ForkTrack(ctx context.Context, label string) context.Context {
	if ctx == nil {
		return ctx
	}
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || !v.reg.TracingEnabled() {
		return ctx
	}
	t := v.reg.NewTrack(label)
	if t < 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{reg: v.reg, track: t})
}

// StartSpan opens a wall-clock span named name on ctx's track. The
// returned Span is a value; call End exactly once. When ctx carries no
// registry or tracing is disabled the span is a zero Span and End is a
// no-op — StartSpan costs one context lookup and allocates nothing.
func StartSpan(ctx context.Context, name string) Span {
	if ctx == nil {
		return Span{}
	}
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.reg == nil || v.track < 0 || v.reg.spans.Load() == nil {
		return Span{}
	}
	return Span{reg: v.reg, track: v.track, name: name, start: time.Since(v.reg.start)}
}
