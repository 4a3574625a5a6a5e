package server

// Request tracing: every HTTP request gets a W3C trace-context identity
// (accepted from the client's traceparent header or generated here), and
// that identity is the correlation key across the 202 response, the job
// journal, SSE events, the job log line, and the job's trace artifact. Trace
// ids never reach determinism-gated artifact bytes: the pipeline sees
// them only through the obs registry, whose trace/metrics exports are
// the two artifacts excluded from the byte-identity gate.
//
// This file is also the sanctioned home of the repo's one randomness
// source: crypto/rand feeds trace and span ids and nothing else. The
// detsource analyzer flags crypto/rand anywhere a determinism-gated
// package could reach it.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"
)

// traceIDKey keys the request's trace id in its context.
type traceIDKey struct{}

// withTraceID returns ctx carrying the trace id.
func withTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// traceIDFrom returns the trace id carried by ctx, or "".
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// isHex reports whether s is entirely lowercase hex. The W3C spec
// requires lowercase; uppercase headers are invalid and get a fresh id.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// allZero reports whether s is all '0' — the invalid sentinel for both
// trace and parent ids.
func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// parseTraceparent extracts the trace id from a W3C traceparent header:
// version "-" 32-hex trace-id "-" 16-hex parent-id "-" 2-hex flags.
// Returns ok=false for anything malformed (including the all-zero ids
// and the forbidden version ff), in which case the server generates a
// fresh identity rather than propagating garbage.
func parseTraceparent(h string) (traceID string, ok bool) {
	if len(h) < 55 {
		return "", false
	}
	ver, tid, parent, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	if !isHex(ver) || ver == "ff" {
		return "", false
	}
	// Future versions may append fields after the flags; version 00 must
	// be exactly 55 bytes.
	if ver == "00" && len(h) != 55 {
		return "", false
	}
	if len(h) > 55 && h[55] != '-' {
		return "", false
	}
	if !isHex(tid) || allZero(tid) || !isHex(parent) || allZero(parent) || !isHex(flags) {
		return "", false
	}
	return tid, true
}

// randHex returns n random bytes as 2n lowercase hex digits. crypto/rand
// read failures fall back to a wall-clock-derived id — worse uniqueness,
// but correlation ids must never abort a request.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return fmt.Sprintf("%0*x", 2*n, uint64(time.Now().UnixNano())|1)
	}
	return hex.EncodeToString(b)
}

// newTraceID returns a fresh 32-hex-digit W3C trace id.
func newTraceID() string { return randHex(16) }

// responseTraceparent renders the header echoed on every response: the
// request's trace id under a server-chosen span id, sampled flag set.
func responseTraceparent(traceID string) string {
	return "00-" + traceID + "-" + randHex(8) + "-01"
}

// withTracing is the outermost handler: resolve the request's trace
// identity, echo it in the response traceparent header, and stash it in
// the request context for admission.
func withTracing(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid, ok := parseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tid = newTraceID()
		}
		w.Header().Set("traceparent", responseTraceparent(tid))
		next.ServeHTTP(w, r.WithContext(withTraceID(r.Context(), tid)))
	})
}
