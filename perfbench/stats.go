package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond the highest reported
// percentile for that percentile to be worth printing.
const minBeyond = 10

// nearestRank returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest sample with at least q·n samples at or below it.
// The input is not modified. Returns 0 for no samples.
func nearestRank(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rankIndex(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// beyond is how many of n samples lie strictly after the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// minSamplesFor is the smallest sample count that leaves minBeyond
// samples beyond the nearest-rank q-quantile.
func minSamplesFor(q float64) int {
	n := 1
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// median is the nearest-rank median.
func median(samples []float64) float64 { return nearestRank(samples, 0.5) }

// arrivalSchedule returns n open-loop send offsets for a Poisson process
// of the given rate, conditioned on its count in every one-second slot:
// slot k holds exactly round((k+1)·rate) − round(k·rate) arrivals, at
// uniform random times inside the slot (a Poisson process conditioned on
// its count). Within a second, arrivals bunch as Poisson arrivals do;
// across seconds the offered load does not wander with the seed, so one
// seed's run cannot meet a burst twice the rate and another none.
func arrivalSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, n)
	for k := 0; len(out) < n; k++ {
		c := int(math.Round(float64(k+1)*rate)) - int(math.Round(float64(k)*rate))
		slot := make([]float64, min(c, n-len(out)))
		for i := range slot {
			slot[i] = float64(k) + rng.Float64()
		}
		sort.Float64s(slot)
		for _, s := range slot {
			out = append(out, time.Duration(s*float64(time.Second)))
		}
	}
	return out
}

// interval is a half-open span of time [lo, hi) on one clock.
type interval struct{ lo, hi time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (parallel workers) or stick out
// of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.lo <= cur.hi:
			cur.hi = max(cur.hi, c.hi)
		default:
			covered += cur.hi - cur.lo
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.hi - parent.lo - covered
}

// meter accounts process CPU and resident memory over one measured
// window. Start and Stop bracket the window; CPU spent before Start
// (set-up) or after Stop (the reference pass) is not charged, and only
// RSS samples taken while the window is open count toward the peak.
type meter struct {
	cpu    func() time.Duration // process user+sys CPU so far
	rss    func() int64         // current resident bytes
	period time.Duration

	cpu0, cpuWin time.Duration
	peak         int64
	stop         chan struct{}
	done         <-chan error
}

func newMeter() *meter {
	return &meter{cpu: processCPU, rss: residentBytes, period: 5 * time.Millisecond}
}

// Start opens the window and starts the RSS sampler.
func (m *meter) Start() {
	m.cpu0 = m.cpu()
	m.peak = m.rss()
	m.stop = make(chan struct{})
	m.done = async(m.sample)
}

func (m *meter) sample() error {
	t := time.NewTicker(m.period)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return nil
		case <-t.C:
			if v := m.rss(); v > m.peak {
				m.peak = v
			}
		}
	}
}

// Stop closes the window: it joins the sampler, takes one last RSS
// sample and fixes the window's CPU. Safe to call more than once.
func (m *meter) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
	if v := m.rss(); v > m.peak {
		m.peak = v
	}
	m.cpuWin = m.cpu() - m.cpu0
}

// CPU is the process CPU charged to the closed window.
func (m *meter) CPU() time.Duration { return m.cpuWin }

// PeakRSS is the largest resident size seen while the window was open.
func (m *meter) PeakRSS() int64 { return m.peak }

// processCPU reads this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the current resident set size from
// /proc/self/statm (second field, in pages).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	v, err := parseStatmRSS(string(data))
	if err != nil {
		return 0
	}
	return v * int64(os.Getpagesize())
}

func parseStatmRSS(s string) (int64, error) {
	f := strings.Fields(s)
	if len(f) < 2 {
		return 0, errors.New("statm: too few fields")
	}
	v, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return v, nil
}
