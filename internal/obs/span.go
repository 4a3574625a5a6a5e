package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Span is an open wall-clock interval on one trace track. The zero Span
// (returned when tracing is off) is valid and End is a no-op, so call
// sites need no conditionals:
//
//	sp := obs.StartSpan(ctx, "stats/pair")
//	defer sp.End()
//
// Spans on one track must close LIFO (guaranteed when a track is owned
// by a single goroutine), which is what makes the exported trace
// properly nested.
type Span struct {
	reg   *Registry
	start time.Duration // offset from Registry.start
	track int32
	name  string
}

// End closes the span and records it. Recording is one atomic add, one
// atomic chunk load and a struct store into the sink (plus a chunk
// allocation for the first span of every spanChunk); past the sink's cap
// the span is counted as dropped instead. A registered span observer (see
// Registry.ObserveSpans) is notified after the record lands.
func (s Span) End() {
	if s.reg != nil {
		s.endAt(time.Since(s.reg.start))
	}
}

// endAt records s as closed at offset end from its registry's start, then
// notifies the span observer. s.reg is non-nil: only a traced registry
// hands out spans with one.
func (s Span) endAt(end time.Duration) {
	s.reg.spans.Load().add(spanRecord{name: s.name, track: s.track, start: s.start, dur: end - s.start})
	if fn := s.reg.spanObs.Load(); fn != nil {
		(*fn)(s.name, s.start, end-s.start)
	}
}

// Phase is a span that is timed whether or not tracing is on. One clock
// reading opens it and one closes it, so the span, the named timing
// histogram and the duration End returns are one measurement.
type Phase struct {
	span  Span
	reg   *Registry
	hist  string
	start time.Time
}

// StartPhase opens a span named span on ctx's track and starts the phase
// clock; End records the duration in the timing histogram named hist of
// ctx's registry (nowhere when ctx carries none).
func StartPhase(ctx context.Context, span, hist string) Phase {
	p := Phase{span: StartSpan(ctx, span), reg: FromContext(ctx), hist: hist, start: time.Now()}
	if p.span.reg != nil {
		// The span opens at the phase clock's reading, not its own.
		p.span.start = p.start.Sub(p.span.reg.start)
	}
	return p
}

// End closes the span, records the phase's duration and returns it, all
// from one clock reading: what recording the span costs, its observer
// included, falls outside the phase. Call it exactly once.
func (p Phase) End() time.Duration {
	now := time.Now()
	if p.span.reg != nil {
		p.span.endAt(now.Sub(p.span.reg.start))
	}
	d := now.Sub(p.start)
	p.reg.Timing(p.hist).Observe(d)
	return d
}

// SpanObserver receives one callback per closed span: the span's name and
// its start offset / duration relative to the registry's start. Observers
// run synchronously inside Span.End on whatever goroutine closed the span
// — they must be safe for concurrent use and cheap; anything slow belongs
// behind a buffered channel on the observer's side. Progress streaming is
// the intended use (internal/server turns phase spans into SSE events);
// observers must never feed notebook or report bytes, which keeps the
// determinism contract untouched.
type SpanObserver func(name string, start, dur time.Duration)

// ObserveSpans registers fn as the registry's span observer (nil clears
// it). Like EnableTracing, call before the run starts; spans are only
// collected — and therefore only observed — while tracing is enabled.
// Nil-safe; the last registered observer wins.
func (r *Registry) ObserveSpans(fn SpanObserver) {
	if r == nil {
		return
	}
	if fn == nil {
		r.spanObs.Store(nil)
		return
	}
	r.spanObs.Store(&fn)
}

// spanRecord is one closed span. Offsets are relative to Registry.start,
// taken from Go's monotonic clock.
type spanRecord struct {
	name  string
	start time.Duration
	dur   time.Duration
	track int32
}

// spanChunk is how many span records the sink allocates at a time
// (40 KiB). A job records one to two thousand spans, so its sink holds
// two or three chunks rather than the whole cap.
const spanChunk = 1024

// spanRing is the span sink: room for cap records, allocated in chunks
// of spanChunk as spans arrive. A slot is claimed with one atomic
// increment and its chunk found with one atomic load; the span that
// finds its chunk missing (normally the chunk's first) allocates it and
// installs it with one CAS, and a racer that loses the CAS writes into
// the winner's chunk. Each claimed slot is written by exactly one
// goroutine and read only after the run has joined all workers, so slot
// writes need no lock. Past the cap, further spans are dropped (and
// counted): tracing memory stays bounded whatever the run does.
type spanRing struct {
	next    atomic.Int64
	dropped atomic.Int64
	cap     int64
	chunks  []atomic.Pointer[[spanChunk]spanRecord]
}

func newSpanRing(capacity int) *spanRing {
	return &spanRing{
		cap:    int64(capacity),
		chunks: make([]atomic.Pointer[[spanChunk]spanRecord], (capacity+spanChunk-1)/spanChunk),
	}
}

func (r *spanRing) add(rec spanRecord) {
	i := r.next.Add(1) - 1
	if i >= r.cap {
		r.dropped.Add(1)
		return
	}
	slot := &r.chunks[i/spanChunk]
	c := slot.Load()
	if c == nil {
		c = new([spanChunk]spanRecord)
		if !slot.CompareAndSwap(nil, c) {
			c = slot.Load()
		}
	}
	c[i%spanChunk] = rec
}

// count returns how many spans were recorded: the claimed slots, up to
// the cap.
func (r *spanRing) count() int {
	return int(min(r.next.Load(), r.cap))
}

// record returns recorded span i (i < count()). Only call after the run
// has completed; a span still ending then reads as a zero record, not a
// nil chunk.
func (r *spanRing) record(i int) spanRecord {
	c := r.chunks[i/spanChunk].Load()
	if c == nil {
		return spanRecord{}
	}
	return c[i%spanChunk]
}

// spanRecords copies the recorded spans, in sink order, and the track
// label table, which exists whether or not tracing is on. Only call
// after the run has completed.
func (r *Registry) spanRecords() ([]spanRecord, []string) {
	var spans []spanRecord
	if ring := r.spans.Load(); ring != nil {
		spans = make([]spanRecord, ring.count())
		for i := range spans {
			spans[i] = ring.record(i)
		}
	}
	r.mu.Lock()
	tracks := append([]string(nil), r.tracks...)
	r.mu.Unlock()
	return spans, tracks
}

// Dropped reports how many spans were discarded because the sink had
// reached its cap (0 when tracing is disabled).
func (r *Registry) Dropped() int64 {
	if r == nil {
		return 0
	}
	ring := r.spans.Load()
	if ring == nil {
		return 0
	}
	return ring.dropped.Load()
}

// SpanCount reports how many spans were recorded (0 when tracing is
// disabled). Like record, only meaningful once the run has completed.
func (r *Registry) SpanCount() int {
	if r == nil {
		return 0
	}
	ring := r.spans.Load()
	if ring == nil {
		return 0
	}
	return ring.count()
}
