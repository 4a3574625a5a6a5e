package durable

import (
	"hash/fnv"
	"time"
)

// RetryPolicy bounds how often a crash-interrupted job is re-run.
// Attempts count executions: a job whose attempt-N run was interrupted
// is re-enqueued for attempt N+1 after Backoff(id, N), until N reaches
// MaxAttempts — then it is quarantined (failed_permanent), never
// silently dropped.
type RetryPolicy struct {
	// MaxAttempts is the number of execution attempts a job may consume
	// before quarantine (minimum 1).
	MaxAttempts int
	// Base is the first retry's backoff; each further attempt doubles
	// it, up to 64×Base.
	Base time.Duration
}

// maxBackoffDoublings caps a backoff delay at Base·2^6 = 64×Base.
const maxBackoffDoublings = 6

// WithDefaults returns p with zero fields defaulted: 3 attempts, 250 ms
// base.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Base <= 0 {
		p.Base = 250 * time.Millisecond
	}
	return p
}

// Exhausted reports whether a job interrupted during the given attempt
// (1-based) has no retries left and must be quarantined.
func (p RetryPolicy) Exhausted(attempt int) bool {
	return attempt >= p.MaxAttempts
}

// Backoff returns the delay before re-running a job whose attempt-N run
// was interrupted: Base·2^(N−1), at most 64×Base, plus a deterministic
// jitter of up to half the delay, derived from (id, attempt) so the
// schedule is reproducible across restarts yet de-synchronised across
// jobs. attempt 0 (admitted but never started) retries immediately.
func (p RetryPolicy) Backoff(id string, attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := p.Base << min(attempt-1, maxBackoffDoublings)
	h := fnv.New64a()
	_, _ = h.Write([]byte(id)) // fnv's Write cannot fail
	var buf [1]byte
	buf[0] = byte(attempt)
	_, _ = h.Write(buf[:])
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}
