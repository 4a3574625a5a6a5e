package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"comparenb/internal/faultinject"
)

// TestBuildCubeParallelCtxMatchesUncancelled: with a live context, the
// build equals the shard-aware reference cube bit for bit at every thread
// count.
func TestBuildCubeParallelCtxMatchesUncancelled(t *testing.T) {
	rel := randomRelation(2, []int{5, 7}, 2, 3*buildShardRows+100, 21)
	want := referenceBuildCube(rel, []int{0, 1})
	for _, threads := range []int{1, 2, 8} {
		got, err := BuildCube(context.Background(), rel, []int{0, 1}, threads)
		if err != nil {
			t.Fatalf("threads=%d: unexpected error %v", threads, err)
		}
		requireMatchesReference(t, fmt.Sprintf("threads=%d", threads), want, got)
	}
}

// TestBuildCubeParallelCtxCancelled: a pre-cancelled context aborts the
// build before any shard is scanned.
func TestBuildCubeParallelCtxCancelled(t *testing.T) {
	rel := randomRelation(1, []int{4}, 1, 2*buildShardRows, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, threads := range []int{1, 4} {
		cube, err := BuildCube(ctx, rel, []int{0}, threads)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
		if cube != nil {
			t.Errorf("threads=%d: cancelled build returned a cube", threads)
		}
	}
}

// TestBuildCubeParallelCtxCancelMidShard injects a cancellation at the
// k-th shard checkpoint via the fault-injection registry: the build must
// abort with the context's error on both the serial and parallel paths.
func TestBuildCubeParallelCtxCancelMidShard(t *testing.T) {
	rel := randomRelation(1, []int{6}, 1, 6*buildShardRows, 8)
	for _, threads := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		restore := faultinject.Set(faultinject.EngineCubeShard, faultinject.OnCall(2, cancel))
		cube, err := BuildCube(ctx, rel, []int{0}, threads)
		restore()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("threads=%d: err = %v, want context.Canceled", threads, err)
		}
		if cube != nil {
			t.Errorf("threads=%d: mid-shard-cancelled build returned a cube", threads)
		}
	}
}

// TestCacheCtxCancelInsertsNothing: a cancelled GetOrBuild or
// BuildThrough leaves no entry behind, so the cache never serves a
// partial cube; and re-running with a live context succeeds.
func TestCacheCtxCancelInsertsNothing(t *testing.T) {
	rel := randomRelation(2, []int{3, 4}, 1, 2*buildShardRows, 13)
	cc := NewCubeCache(0)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := cc.GetOrBuild(cancelled, rel, []int{0}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetOrBuild err = %v, want context.Canceled", err)
	}
	if _, err := cc.BuildThrough(cancelled, rel, []int{1}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildThrough err = %v, want context.Canceled", err)
	}
	if s := cc.Stats(); s.Entries != 0 || s.Misses != 0 {
		t.Fatalf("cancelled builds touched the cache: %+v", s)
	}

	cube, err := cc.GetOrBuild(context.Background(), rel, []int{0}, 2)
	if err != nil || cube == nil {
		t.Fatalf("live retry failed: cube=%v err=%v", cube, err)
	}
	if s := cc.Stats(); s.Entries != 1 || s.Misses != 1 {
		t.Fatalf("live retry stats: %+v", s)
	}
}

// TestGetOrBuildCtxRollupIgnoresCancel: answering from a cached superset
// is a cheap roll-up that deliberately does not observe ctx, so even a
// cancelled context gets the rolled-up answer (the caller aborts at its
// own next checkpoint).
func TestGetOrBuildCtxRollupIgnoresCancel(t *testing.T) {
	rel := randomRelation(2, []int{3, 4}, 1, 1000, 17)
	cc := NewCubeCache(0)
	if _, err := cc.GetOrBuild(context.Background(), rel, []int{0, 1}, 1); err != nil {
		t.Fatalf("seeding superset: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cube, err := cc.GetOrBuild(ctx, rel, []int{0}, 1)
	if err != nil || cube == nil {
		t.Fatalf("rollup under cancelled ctx: cube=%v err=%v", cube, err)
	}
	if s := cc.Stats(); s.RollupHits != 1 {
		t.Fatalf("expected a rollup hit: %+v", s)
	}
}
