package server

import (
	"net/http"
	"strings"
	"testing"

	"comparenb/internal/governor"
	"comparenb/internal/pipeline"
)

// TestTerminalEventLoggedWithState races eventsSince against each
// terminal transition: whenever a reader sees a terminal state, the log
// returned by the same call must already end with the terminal event.
// Otherwise an SSE stream that drained the log could close on the
// terminal state without ever delivering done, error or cancelled.
func TestTerminalEventLoggedWithState(t *testing.T) {
	cases := []struct {
		state, event, data string
		end                jobEnd
	}{
		{stateDone, "done", `"queries":3`, jobEnd{artifacts: []pipeline.Artifact{}, summary: &jobSummary{Queries: 3}}},
		{stateFailed, "error", `"code":503`, jobEnd{code: http.StatusServiceUnavailable, msg: "shut down"}},
		{stateCancelled, "state", `"cancelled"`, jobEnd{msg: "cancelled by client"}},
	}
	for _, tc := range cases {
		for i := 0; i < 2000; i++ {
			j := newJob("j1", "t", jobRequest{}, nil, pipeline.Config{}, governor.Full, "")
			finished := make(chan struct{})
			go func() {
				defer close(finished)
				j.finish(tc.state, tc.end)
			}()
			for {
				// Read whether finish has returned before reading the log,
				// so a finish that never reaches a terminal state fails
				// instead of spinning forever.
				done := false
				select {
				case <-finished:
					done = true
				default:
				}
				evs, _, terminal := j.eventsSince(0)
				if !terminal {
					if done {
						t.Fatalf("%s, iteration %d: finish returned without a terminal state", tc.state, i)
					}
					continue
				}
				last := evs[len(evs)-1]
				if last.name != tc.event || !strings.Contains(last.data, tc.data) {
					t.Fatalf("%s, iteration %d: terminal state visible with last event %s %s, want %s containing %s",
						tc.state, i, last.name, last.data, tc.event, tc.data)
				}
				break
			}
			<-finished
		}
	}
}
