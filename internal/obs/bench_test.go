package obs

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// BenchmarkStartSpanDisabled is the cost every kernel pays when tracing is
// off: one context lookup, no allocation.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := NewContext(context.Background(), New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx, "bench")
		sp.End()
	}
}

// BenchmarkStartSpanEnabled is the enabled cost of a recorded span: two
// clock reads, a slot claim and a record store, plus the sink's 40 KiB
// chunk per 1,024 spans (about 40 B/op amortised). A fresh registry every
// defaultSpanCapacity spans keeps every span under the cap, so none is
// dropped.
func BenchmarkStartSpanEnabled(b *testing.B) {
	var ctx context.Context
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%defaultSpanCapacity == 0 {
			r := New()
			r.EnableTracing(0)
			ctx = NewContext(context.Background(), r)
		}
		sp := StartSpan(ctx, "bench")
		sp.End()
	}
}

// BenchmarkStartSpanNoRegistry is the fully-unwired cost (no registry in
// the context at all) — the Generate-without-Config.Obs... path never hits
// this, but library kernels called standalone do.
func BenchmarkStartSpanNoRegistry(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx, "bench")
		sp.End()
	}
}

// BenchmarkCounterAdd is the prefetched-handle hot-path counter cost.
func BenchmarkCounterAdd(b *testing.B) {
	c := New().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkTimingObserve prices the histogram path.
func BenchmarkTimingObserve(b *testing.B) {
	tm := New().Timing("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Observe(time.Duration(i) * time.Microsecond)
	}
}

// BenchmarkWriteTrace exports the trace of a shared-exploration job: 2,144
// spans on one track, named as the pipeline names them (338 value pairs
// of one permutation block each, 1,463 hypothesis evaluations), with
// nanosecond offsets as a real run records them.
func BenchmarkWriteTrace(b *testing.B) {
	r := New()
	r.EnableTracing(4096)
	ring := r.spans.Load()
	at := time.Duration(0)
	span := func(name string, dur time.Duration) {
		ring.add(spanRecord{name: name, start: at, dur: dur})
		at += dur + 1013
	}
	span("phase/fd", 412_345)
	statsStart := at
	for p := 0; p < 338; p++ {
		pairStart := at
		span("stats/pair/permblock", 151_297+time.Duration(p%17)*911)
		ring.add(spanRecord{name: "stats/pair", start: pairStart, dur: at - pairStart})
	}
	ring.add(spanRecord{name: "phase/stats", start: statsStart, dur: at - statsStart})
	hypoStart := at
	for h := 0; h < 1463; h++ {
		span("hypo/eval", 4_519+time.Duration(h%29)*37)
	}
	ring.add(spanRecord{name: "phase/hypo", start: hypoStart, dur: at - hypoStart})
	span("phase/tap", 83_211)
	ring.add(spanRecord{name: "run", start: 0, dur: at})
	if n := r.SpanCount(); n != 2144 {
		b.Fatalf("%d spans, want 2144", n)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := r.WriteTrace(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
