package obs

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every entry point must be a no-op on nil receivers and nil contexts:
	// the disabled-observability path runs through exactly these calls.
	var r *Registry
	r.Counter("x").Add(3)
	r.Counter("x").Inc()
	r.Gauge("x").Set(9)
	r.Timing("x").Observe(time.Second)
	r.EnableTracing(8)
	r.MarkInterrupted()
	if r.TracingEnabled() || r.Interrupted() {
		t.Error("nil registry reports enabled/interrupted")
	}
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 || r.Timing("x").Count() != 0 {
		t.Error("nil handles hold values")
	}
	if r.DeterministicState() != nil {
		t.Error("nil registry DeterministicState != nil")
	}
	if got := NewContext(context.Background(), nil); got != context.Background() {
		t.Error("NewContext(nil registry) changed ctx")
	}
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Error("FromContext invented a registry")
	}
	if ForkTrack(nil, "w") != nil {
		t.Error("ForkTrack(nil ctx) != nil ctx")
	}
	sp := StartSpan(nil, "x")
	sp.End() // must not panic
	sp = StartSpan(context.Background(), "x")
	sp.End()
}

func TestCounterGaugeTiming(t *testing.T) {
	r := New()
	c := r.Counter("jobs")
	if c != r.Counter("jobs") {
		t.Error("Counter not memoised by name")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}

	g := r.Gauge("width")
	g.Set(5)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want last write 3", g.Value())
	}

	tm := r.Timing("lat")
	tm.Observe(500 * time.Nanosecond) // first bucket (≤1µs)
	tm.Observe(2 * time.Microsecond)
	tm.Observe(20 * time.Second) // past the last bound → +Inf bucket
	tm.Observe(-time.Second)     // clamped to 0
	if tm.Count() != 4 {
		t.Errorf("timing count = %d, want 4", tm.Count())
	}
	if tm.Sum() != 500*time.Nanosecond+2*time.Microsecond+20*time.Second {
		t.Errorf("timing sum = %v", tm.Sum())
	}
}

func TestDeterministicStateExcludesTimings(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(7)
	r.Timing("wall").Observe(time.Millisecond)
	got := r.DeterministicState()
	want := map[string]int64{"counter/a": 2, "gauge/b": 7}
	if len(got) != len(want) {
		t.Fatalf("state = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("state[%q] = %d, want %d", k, got[k], v)
		}
	}
}

func TestSpanCollection(t *testing.T) {
	r := New()
	ctx := NewContext(context.Background(), r)
	// Disabled: spans vanish.
	sp := StartSpan(ctx, "ignored")
	sp.End()
	if r.SpanCount() != 0 {
		t.Fatalf("span recorded while tracing disabled")
	}

	r.EnableTracing(4)
	outer := StartSpan(ctx, "outer")
	inner := StartSpan(ctx, "inner")
	inner.End()
	outer.End()
	if r.SpanCount() != 2 {
		t.Fatalf("span count = %d, want 2", r.SpanCount())
	}

	// Overflow: capacity 4, two used — two more fit, the rest drop.
	for i := 0; i < 5; i++ {
		s := StartSpan(ctx, "spill")
		s.End()
	}
	if r.SpanCount() != 4 {
		t.Errorf("span count = %d, want capacity 4", r.SpanCount())
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
}

func TestEnableTracingKeepsFirstBuffer(t *testing.T) {
	r := New()
	r.EnableTracing(4)
	ctx := NewContext(context.Background(), r)
	s := StartSpan(ctx, "one")
	s.End()
	r.EnableTracing(64) // must not discard the recorded span
	if r.SpanCount() != 1 {
		t.Errorf("span count = %d after repeat EnableTracing, want 1", r.SpanCount())
	}
}

// TestSpanSinkConcurrent records spans from 8 goroutines at once into the
// default sink, so chunks are claimed and installed concurrently (run it
// under -race): every span lands exactly once and none is dropped.
func TestSpanSinkConcurrent(t *testing.T) {
	const workers, perWorker = 8, 3000
	r := New()
	r.EnableTracing(0)
	ctx := NewContext(context.Background(), r)
	names := make([][]string, workers)
	for g := range names {
		for i := 0; i < perWorker; i++ {
			names[g] = append(names[g], fmt.Sprintf("g%d/%d", g, i))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(wctx context.Context, names []string) {
			defer wg.Done()
			for _, name := range names {
				StartSpan(wctx, name).End()
			}
		}(ForkTrack(ctx, "w"), names[g])
	}
	wg.Wait()

	if got := r.SpanCount(); got != workers*perWorker {
		t.Errorf("span count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Dropped(); got != 0 {
		t.Errorf("dropped = %d, want 0", got)
	}
	spans, _ := r.spanRecords()
	seen := make(map[string]int, len(spans))
	for _, sp := range spans {
		seen[sp.name]++
	}
	for _, ns := range names {
		for _, name := range ns {
			if seen[name] != 1 {
				t.Fatalf("span %s appears %d times among the records, want once", name, seen[name])
			}
		}
	}
}

// TestSpanSinkCapMidChunk puts the cap inside the sink's second chunk:
// the spans up to the cap are kept in order and the rest are dropped.
func TestSpanSinkCapMidChunk(t *testing.T) {
	r := New()
	r.EnableTracing(1500)
	ctx := NewContext(context.Background(), r)
	for i := 0; i < 2000; i++ {
		StartSpan(ctx, strconv.Itoa(i)).End()
	}
	if got, dropped := r.SpanCount(), r.Dropped(); got != 1500 || dropped != 500 {
		t.Errorf("span count %d, dropped %d; want 1500 and 500", got, dropped)
	}
	spans, _ := r.spanRecords()
	for i, sp := range spans {
		if sp.name != strconv.Itoa(i) {
			t.Fatalf("record %d is span %s, want %d", i, sp.name, i)
		}
	}
}

// TestSpanSinkGrowsInChunks: arming the default 64Ki-span cap and
// recording a few spans allocates one chunk, not the whole cap.
func TestSpanSinkGrowsInChunks(t *testing.T) {
	r := New()
	ctx := NewContext(context.Background(), r)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.EnableTracing(0)
	for i := 0; i < 10; i++ {
		StartSpan(ctx, "s").End()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("EnableTracing(0) and 10 spans allocated %d bytes, want under 128 KiB", got)
	}
	if r.SpanCount() != 10 {
		t.Errorf("span count = %d, want 10", r.SpanCount())
	}
}

func TestForkTrack(t *testing.T) {
	r := New()
	ctx := NewContext(context.Background(), r)
	if got := ForkTrack(ctx, "w"); got != ctx {
		t.Error("ForkTrack with tracing disabled must return ctx unchanged")
	}
	r.EnableTracing(16)
	w1 := ForkTrack(ctx, "w")
	w2 := ForkTrack(ctx, "w")
	if w1 == ctx || w2 == ctx || w1 == w2 {
		t.Error("ForkTrack did not allocate fresh tracks")
	}
	s1 := StartSpan(w1, "a")
	s2 := StartSpan(w2, "b")
	s2.End()
	s1.End()
	if r.SpanCount() != 2 {
		t.Errorf("span count = %d, want 2", r.SpanCount())
	}
}

func TestTrackCap(t *testing.T) {
	r := New()
	r.EnableTracing(16)
	ctx := NewContext(context.Background(), r)
	for i := 0; i < maxTracks+10; i++ {
		ForkTrack(ctx, "w")
	}
	// Past the cap ForkTrack degrades to the parent track; NewTrack
	// reports the condition as -1.
	if id := r.NewTrack("overflow"); id != -1 {
		t.Errorf("NewTrack past cap = %d, want -1", id)
	}
	if got := ForkTrack(ctx, "w"); got != ctx {
		t.Error("ForkTrack past cap must return ctx unchanged")
	}
}

// TestPhaseOneMeasurement: End returns exactly the duration it records in
// the histogram, with tracing off or on. With tracing on, the recorded
// span and the span observer's callback carry that same duration; with it
// off, no span is recorded. A context without a registry still times the
// phase.
func TestPhaseOneMeasurement(t *testing.T) {
	for _, tracing := range []bool{false, true} {
		reg := New()
		var observed time.Duration
		if tracing {
			reg.EnableTracing(0)
			reg.ObserveSpans(func(_ string, _, dur time.Duration) { observed = dur })
		}
		ctx := NewContext(context.Background(), reg)
		d := StartPhase(ctx, "phase/x", "phase_x").End()
		if tm := reg.Timing("phase_x"); tm.Count() != 1 || tm.Sum() != d {
			t.Errorf("tracing=%v: histogram holds %d observations summing to %v, End returned %v",
				tracing, tm.Count(), tm.Sum(), d)
		}
		spans, _ := reg.spanRecords()
		if (len(spans) == 1) != tracing {
			t.Fatalf("tracing=%v: %d spans recorded", tracing, len(spans))
		}
		if tracing && (spans[0].name != "phase/x" || spans[0].dur != d || observed != d) {
			t.Errorf("span %q lasted %v and its observer saw %v; End returned %v",
				spans[0].name, spans[0].dur, observed, d)
		}
	}
	if d := StartPhase(context.Background(), "phase/x", "phase_x").End(); d < 0 {
		t.Errorf("phase without a registry measured %v", d)
	}
}
