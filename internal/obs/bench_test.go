package obs

import (
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
