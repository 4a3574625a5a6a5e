package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func bucketOf(t *testing.T, tm *Timing) int {
	t.Helper()
	counts := tm.Buckets()
	hit := -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if hit >= 0 {
			t.Fatalf("observation landed in two buckets (%d and %d)", hit, i)
		}
		if c != 1 {
			t.Fatalf("bucket %d count = %d, want 1", i, c)
		}
		hit = i
	}
	if hit < 0 {
		t.Fatal("observation landed in no bucket")
	}
	return hit
}

// TestHistogramBucketBoundaries pins the log2 bucket map at its edges:
// zero and one share bucket 0, an exact power of two 2^k is the upper
// bound of bucket k, 2^k+1 spills into bucket k+1, and MaxInt64 lands in
// the +Inf tail.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0},
		{1, 0},
		{2, 1},
		{3, 2},
		{4, 2},
		{5, 3},
		{1 << 10, 10},
		{1<<10 + 1, 11},
		{1 << 30, 30},
		{1 << 62, 62},
		{1<<62 + 1, 63},
		{math.MaxInt64, 63},
	}
	for _, tc := range cases {
		var tm Timing
		tm.Observe(time.Duration(tc.ns))
		if got := bucketOf(t, &tm); got != tc.bucket {
			t.Errorf("Observe(%d ns): bucket %d, want %d", tc.ns, got, tc.bucket)
		}
	}
	// Negative durations clamp to zero → bucket 0.
	var tm Timing
	tm.Observe(-time.Hour)
	if got := bucketOf(t, &tm); got != 0 {
		t.Errorf("Observe(-1h): bucket %d, want 0", got)
	}
	if tm.Sum() != 0 {
		t.Errorf("clamped sum = %v, want 0", tm.Sum())
	}
}

// TestBucketBound pins the exported bound helper against bucketIndex:
// every observation's bucket bound is >= the observed value, and the
// previous bucket's bound is < it.
func TestBucketBound(t *testing.T) {
	if BucketBound(0) != 1 {
		t.Errorf("BucketBound(0) = %v, want 1ns", BucketBound(0))
	}
	if BucketBound(TimingBuckets-1) != time.Duration(math.MaxInt64) {
		t.Errorf("last bound = %v, want MaxInt64 sentinel", BucketBound(TimingBuckets-1))
	}
	for _, ns := range []int64{1, 2, 3, 100, 1e6, 1e9, 1 << 40, math.MaxInt64} {
		b := bucketIndex(ns)
		if int64(BucketBound(b)) < ns {
			t.Errorf("ns=%d: bound(bucket %d) = %d < observation", ns, b, int64(BucketBound(b)))
		}
		if b > 0 && b < TimingBuckets-1 && int64(BucketBound(b-1)) >= ns {
			t.Errorf("ns=%d: previous bound %d should be below it", ns, int64(BucketBound(b-1)))
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (meaningful under -race) and checks the totals balance.
func TestHistogramConcurrentObserve(t *testing.T) {
	var tm Timing
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tm.Observe(time.Duration(1 + (w*per+i)%1000000))
			}
		}(w)
	}
	wg.Wait()
	if tm.Count() != workers*per {
		t.Fatalf("count = %d, want %d", tm.Count(), workers*per)
	}
	var sum int64
	for _, c := range tm.Buckets() {
		sum += c
	}
	if sum != workers*per {
		t.Errorf("bucket sum = %d, want %d", sum, workers*per)
	}
}
