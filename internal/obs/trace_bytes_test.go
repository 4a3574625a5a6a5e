package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestRegistryWriteTraceBytes pins the registry's Chrome-trace bytes:
// hand-placed spans on several tracks, with equal start times (longest
// first), nested spans, sub-microsecond offsets, a name that needs JSON
// quoting and a trace id; then an untraced registry, whose track table
// is still exported, and a nil one.
func TestRegistryWriteTraceBytes(t *testing.T) {
	traced := New()
	traced.EnableTracing(16)
	traced.SetTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	traced.tracks = append(traced.tracks, "worker#1", "worker#2")
	ring := traced.spans.Load()
	for _, rec := range []spanRecord{
		{name: "stats/pair", track: 2, start: 1500 * time.Microsecond, dur: 250 * time.Microsecond},
		{name: "run", track: 0, start: 0, dur: 10 * time.Millisecond},
		{name: "phase/stats", track: 0, start: time.Millisecond + 1, dur: 4 * time.Millisecond},
		{name: "stats/pair", track: 1, start: 1500 * time.Microsecond, dur: 300 * time.Microsecond},
		{name: "stats/pair/permblock", track: 1, start: 1500 * time.Microsecond, dur: 100*time.Microsecond + 333},
		{name: "phase/fd", track: 0, start: 0, dur: time.Millisecond},
		{name: `quote"d`, track: 1, start: 2 * time.Millisecond, dur: 0},
		{name: "stats/pair", track: 2, start: 1500 * time.Microsecond, dur: 250 * time.Microsecond},
	} {
		ring.add(rec)
	}

	cases := []struct {
		name string
		reg  *Registry
		want string
	}{
		{"traced", traced,
			`{"displayTimeUnit":"ms","otherData":{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"},"traceEvents":[` +
				`{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"run"}},` +
				`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker#1"}},` +
				`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"worker#2"}},` +
				`{"name":"run","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":10000.000},` +
				`{"name":"phase/fd","ph":"X","pid":1,"tid":0,"ts":0.000,"dur":1000.000},` +
				`{"name":"phase/stats","ph":"X","pid":1,"tid":0,"ts":1000.001,"dur":4000.000},` +
				`{"name":"stats/pair","ph":"X","pid":1,"tid":1,"ts":1500.000,"dur":300.000},` +
				`{"name":"stats/pair/permblock","ph":"X","pid":1,"tid":1,"ts":1500.000,"dur":100.333},` +
				`{"name":"quote\"d","ph":"X","pid":1,"tid":1,"ts":2000.000,"dur":0.000},` +
				`{"name":"stats/pair","ph":"X","pid":1,"tid":2,"ts":1500.000,"dur":250.000},` +
				`{"name":"stats/pair","ph":"X","pid":1,"tid":2,"ts":1500.000,"dur":250.000}]}` + "\n"},
		{"untraced", New(), `{"displayTimeUnit":"ms","traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"run"}}]}` + "\n"},
		{"nil", nil, `{"displayTimeUnit":"ms","traceEvents":[]}` + "\n"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.reg.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s registry trace:\ngot  %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
