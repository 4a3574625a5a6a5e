package faultinject

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFireWithoutHooksIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("registry not empty at test start")
	}
	Fire(EngineCubeShard) // must not panic or block
}

func TestSetFireRestore(t *testing.T) {
	var hits atomic.Int64
	restore := Set(StatsPermBlock, Always(func() { hits.Add(1) }))
	if !Enabled() {
		t.Fatal("Set did not enable the registry")
	}
	Fire(StatsPermBlock)
	Fire(StatsPermBlock)
	Fire(TapSearchTick) // different site: no hook
	if got := hits.Load(); got != 2 {
		t.Fatalf("hook fired %d times, want 2", got)
	}
	restore()
	if Enabled() {
		t.Fatal("restore left the registry enabled")
	}
	Fire(StatsPermBlock)
	if got := hits.Load(); got != 2 {
		t.Fatalf("hook fired after restore: %d", got)
	}
}

func TestOnCallFiresExactlyOnce(t *testing.T) {
	defer Reset()
	var fired atomic.Int64
	Set(TapSearchTick, OnCall(3, func() { fired.Add(1) }))
	for i := 0; i < 10; i++ {
		Fire(TapSearchTick)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("OnCall(3) fired %d times over 10 calls, want 1", got)
	}
}

func TestMultipleHooksSameSite(t *testing.T) {
	defer Reset()
	var a, b atomic.Int64
	restoreA := Set(EngineCubeShard, Always(func() { a.Add(1) }))
	Set(EngineCubeShard, Always(func() { b.Add(1) }))
	Fire(EngineCubeShard)
	if a.Load() != 1 || b.Load() != 1 {
		t.Fatalf("hooks fired a=%d b=%d, want 1/1", a.Load(), b.Load())
	}
	restoreA()
	Fire(EngineCubeShard)
	if a.Load() != 1 || b.Load() != 2 {
		t.Fatalf("after restoring a: a=%d b=%d, want 1/2", a.Load(), b.Load())
	}
}

// TestConcurrentFire exercises Fire from many goroutines while hooks are
// being registered and removed; run under -race this pins the registry's
// publication discipline.
func TestConcurrentFire(t *testing.T) {
	defer Reset()
	var hits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Fire(StatsPermBlock)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		restore := Set(StatsPermBlock, Always(func() { hits.Add(1) }))
		time.Sleep(100 * time.Microsecond)
		restore()
	}
	close(stop)
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no hook firing observed across 50 register/unregister cycles")
	}
}

func TestSleepHookSleeps(t *testing.T) {
	defer Reset()
	Set(TapSearchTick, Sleep(10*time.Millisecond))
	start := time.Now()
	Fire(TapSearchTick)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("Sleep hook returned after %v, want >= 10ms", elapsed)
	}
}
