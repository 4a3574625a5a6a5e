// Package faultinject provides deterministic, build-time-cheap fault
// hooks for the pipeline's robustness tests. Production code marks
// interesting execution points with Fire(site); tests register hooks that
// inject slowness or trigger cancellation at exactly those points.
//
// Design constraints, in order:
//
//   - Cheap when disabled. With no hooks registered, Fire is one atomic
//     pointer load and a nil check — no map lookup, no lock, no
//     allocation. The hooks therefore stay compiled into release builds
//     (no build tags to drift out of sync) without showing up in
//     profiles.
//   - Deterministic. Hooks decide when to act by counting calls (see
//     OnCall), never by wall-clock time, so an injected fault lands on
//     the same logical operation every run regardless of scheduling.
//   - Race-free. Fire may be called from any number of goroutines while
//     a test registers or clears hooks; the registry is an immutable
//     snapshot swapped atomically.
//
// Typical use in a test:
//
//	ctx, cancel := context.WithCancel(context.Background())
//	defer faultinject.Set(faultinject.StatsPermBlock,
//	    faultinject.OnCall(3, func() { cancel() }))()
//	_, err := pipeline.GenerateContext(ctx, rel, cfg) // err is ctx.Err()
//
// See docs/ROBUSTNESS.md for the catalogue of sites and recipes.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Site names. Each constant marks one instrumented execution point; the
// string doubles as the registry key and as documentation of where the
// hook fires.
const (
	// EngineCubeShard fires once per shard scan of the cube build
	// (internal/engine.BuildCube), before the shard's rows are
	// aggregated.
	EngineCubeShard = "engine.cube.shard"
	// StatsPermBlock fires once per permutation block of
	// stats.PermTests, before the block is drawn and scored — i.e. at
	// every point where the kernel polls for cancellation and where the
	// early stop may have decided a test.
	StatsPermBlock = "stats.perm.block"
	// TapSearchTick fires when the exact TAP solver starts and then at
	// every periodic budget checkpoint of the branch-and-bound search
	// (every few thousand nodes).
	TapSearchTick = "tap.search.tick"
	// GovernorRebalance fires every time the resource governor re-splits
	// the remaining time budget at a phase boundary
	// (governor.(*Governor).StartPhase).
	GovernorRebalance = "governor.rebalance"
	// CacheAdmit fires once per memory-budget admission decision of the
	// cube cache (engine.CubeCache with a mem budget set), before the
	// estimate is compared against the budget.
	CacheAdmit = "engine.cache.admit"
	// ServerAdmit fires once per notebook-job admission decision of the
	// notebook-generation server (internal/server), before the request is
	// decoded and the queue bound consulted. A Sleep hook here holds the
	// admission decision open — the deterministic way to line a request up
	// against a concurrent drain in shutdown tests.
	ServerAdmit = "server.admit"
	// ServerSessionLoad fires once per relation-load request of the
	// notebook-generation server (internal/server), after admission but
	// before the CSV is read, so tests can race a load against shutdown or
	// inject slowness into session establishment.
	ServerSessionLoad = "server.session.load"
	// DiskWrite fires immediately before every payload write of the
	// durability layer (internal/durable): a journal-record append or an
	// artifact-store temp-file write. A hook that kills the process here
	// simulates a crash before any bytes reached the kernel.
	DiskWrite = "durable.disk.write"
	// DiskFsync fires immediately before every fsync of the durability
	// layer — journal syncs, artifact-file syncs and directory syncs. A
	// crash here leaves bytes written but not yet durable.
	DiskFsync = "durable.disk.fsync"
	// DiskRename fires immediately before the atomic rename that makes a
	// stored file visible under its final name. A crash here leaves only
	// the invisible temp file, which the store sweeps on reopen.
	DiskRename = "durable.disk.rename"
)

// Hook is a registered fault handler. It runs synchronously inside the
// instrumented code path, so it must be safe for concurrent use and
// should be quick unless slowness is the point.
type Hook func(site string)

// registry is an immutable snapshot of the registered hooks. Mutation
// always builds a fresh map and swaps the pointer, so Fire can read
// without locking.
type registry struct {
	hooks map[string][]Hook
}

var (
	active atomic.Pointer[registry]
	mu     sync.Mutex // serialises Set / Reset rebuilds
)

// Fire runs the hooks registered for site, if any. With no hooks
// registered anywhere it costs one atomic load.
func Fire(site string) {
	r := active.Load()
	if r == nil {
		return
	}
	for _, h := range r.hooks[site] {
		h(site)
	}
}

// Enabled reports whether any hook is currently registered. Instrumented
// code does not need to call this — Fire already short-circuits — but
// tests use it to assert cleanup happened.
func Enabled() bool { return active.Load() != nil }

// Set registers a hook at site and returns a restore function that
// removes exactly that registration (other hooks, including other hooks
// on the same site, survive). Tests should defer the restore:
//
//	defer faultinject.Set(site, hook)()
func Set(site string, h Hook) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	next := cloneLocked()
	next.hooks[site] = append(next.hooks[site], h)
	publishLocked(next)
	idx := len(next.hooks[site]) - 1
	return func() {
		mu.Lock()
		defer mu.Unlock()
		cur := cloneLocked()
		hooks := cur.hooks[site]
		if idx < len(hooks) {
			hooks = append(append([]Hook(nil), hooks[:idx]...), hooks[idx+1:]...)
		}
		if len(hooks) == 0 {
			delete(cur.hooks, site)
		} else {
			cur.hooks[site] = hooks
		}
		publishLocked(cur)
	}
}

// Reset removes every registered hook. Tests that register several hooks
// can defer one Reset instead of stacking restores.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Store(nil)
}

// cloneLocked deep-copies the current registry so the published snapshot
// is never mutated in place. Callers hold mu.
func cloneLocked() *registry {
	next := &registry{hooks: make(map[string][]Hook)}
	if cur := active.Load(); cur != nil {
		for site, hooks := range cur.hooks {
			// Map-to-map copy: iteration order cannot be observed.
			next.hooks[site] = append([]Hook(nil), hooks...) //nolint:maporder
		}
	}
	return next
}

// publishLocked swaps in the rebuilt registry, dropping to nil when it is
// empty so Fire stays on its cheapest path. Callers hold mu.
func publishLocked(r *registry) {
	if len(r.hooks) == 0 {
		active.Store(nil)
		return
	}
	active.Store(r)
}

// OnCall returns a hook that runs f exactly once, on the n-th time the
// hook fires (1-based), counting atomically across goroutines. Counting
// calls rather than elapsed time is what keeps injected faults landing on
// the same logical operation every run.
func OnCall(n uint64, f func()) Hook {
	var calls atomic.Uint64
	return func(string) {
		if calls.Add(1) == n {
			f()
		}
	}
}

// Always returns a hook that runs f on every firing.
func Always(f func()) Hook {
	return func(string) { f() }
}

// Sleep returns a hook that sleeps for d on every firing — injected
// slowness, for driving a deadline past expiry at a chosen point.
func Sleep(d time.Duration) Hook {
	return func(string) { time.Sleep(d) }
}
