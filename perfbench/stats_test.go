package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: nearestRank must sort
	}
	return out
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		samples []float64
		q, want float64
	}{
		{seq(10), 0.5, 5},
		{seq(10), 0.9, 9},
		{seq(10), 1, 10},
		{seq(100), 0.5, 50},
		{seq(100), 0.9, 90},
		{seq(101), 0.9, 91},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := nearestRank(c.samples, c.q); got != c.want {
			t.Errorf("nearestRank(n=%d, %v) = %v, want %v", len(c.samples), c.q, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	nearestRank(in, 0.5)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("nearestRank reordered its input: %v", in)
	}
}

func TestBeyondP90Rule(t *testing.T) {
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(99, 0.9); got != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", got)
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Errorf("minSamplesFor(0.5) = %d, want 20", got)
	}
	// Every workload's job count at the benchmark's run length keeps ten
	// samples beyond p90; one below the floor is refused.
	for _, w := range workloadNames {
		p, err := buildPlan(w, 1, benchmarkSeconds(t), 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if beyond(len(p.order), 0.9) < minBeyond {
			t.Errorf("%s: %d jobs leave %d beyond p90", w, len(p.order), beyond(len(p.order), 0.9))
		}
	}
	if _, err := buildPlan("shared-explore", 1, 12, 8, 2); err == nil {
		t.Error("96 open-loop jobs accepted; want the beyond-p90 refusal")
	}
}

func TestArrivalSchedule(t *testing.T) {
	a := arrivalSchedule(42, 8, 160)
	b := arrivalSchedule(42, 8, 160)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, arrivalSchedule(43, 8, 160)) {
		t.Fatal("different seeds produced the same schedule")
	}
	if len(a) != 160 {
		t.Fatalf("len = %d, want 160", len(a))
	}
	perSecond := map[int]int{}
	for i := range a {
		if a[i] < 0 || a[i] >= 20*time.Second {
			t.Fatalf("arrival %d at %v outside [0, 20s)", i, a[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		perSecond[int(a[i]/time.Second)]++
	}
	for s := 0; s < 20; s++ {
		if perSecond[s] != 8 {
			t.Errorf("second %d holds %d arrivals, want 8", s, perSecond[s])
		}
	}
	// A fractional rate spreads its remainder over the slots.
	if got := len(arrivalSchedule(1, 2.5, 25)); got != 25 {
		t.Errorf("rate 2.5: %d arrivals, want 25", got)
	}
	if last := arrivalSchedule(1, 2.5, 25)[24]; last >= 10*time.Second {
		t.Errorf("rate 2.5: last arrival %v, want inside the first 10s", last)
	}
	// The plan's schedule is drawn from the workload seed.
	p1, err := buildPlan("shared-explore", 5, 20, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buildPlan("shared-explore", 5, 20, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := buildPlan("shared-explore", 6, 20, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.arrivals, p2.arrivals) || !reflect.DeepEqual(p1.order, p2.order) {
		t.Error("same workload seed produced different arrivals or request mix")
	}
	if reflect.DeepEqual(p1.arrivals, p3.arrivals) {
		t.Error("different workload seeds produced the same arrivals")
	}
	if string(p1.relations[0].csv) == string(p3.relations[0].csv) {
		t.Error("different workload seeds produced the same relation")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	iv := func(lo, hi int) interval { return interval{time.Duration(lo) * ms, time.Duration(hi) * ms} }
	parent := iv(0, 100)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70 * ms},
		{"overlapping", []interval{iv(10, 40), iv(30, 60)}, 50 * ms},
		{"parallel, identical", []interval{iv(20, 80), iv(20, 80), iv(20, 80)}, 40 * ms},
		{"parallel, nested", []interval{iv(10, 90), iv(20, 30), iv(50, 60)}, 20 * ms},
		{"sticking out", []interval{iv(-20, 10), iv(95, 130)}, 85 * ms},
		{"outside", []interval{iv(100, 120), iv(-5, 0)}, 100 * ms},
		{"full cover", []interval{iv(0, 60), iv(50, 100)}, 0},
		{"unsorted", []interval{iv(70, 80), iv(10, 20), iv(15, 25)}, 75 * ms},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// emptyTracedRun is a traced run with no data, enough to list the
// per-layer metrics.
func emptyTracedRun() *tracedRun {
	return &tracedRun{
		untraced: &window{}, traced: &window{}, jobs: &jobTraceStats{},
		replay: &replayStats{}, tr: newTracer(),
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether a metric name fits the result schema.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }

func TestMetricNames(t *testing.T) {
	all := append((&window{}).e2eMetrics(0), layerMetrics(&plan{}, emptyTracedRun())...)
	seen := map[string]bool{}
	for _, m := range all {
		if !validMetricName(m.name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"", "a b", "p90/ms", "_x", "x{le}", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark's code must
// agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func benchmarkSeconds(t *testing.T) int { return readBenchmarkFile(t).RunSeconds }

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code in
// step: the same workloads, and the same metric names and units in the
// same order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", workloads, workloadNames)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metric) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, (&window{}).e2eMetrics(0))
	check("per_layer", bf.PerLayer, layerMetrics(&plan{}, emptyTracedRun()))
}

func TestMeterWindow(t *testing.T) {
	var cpu, rss, reads atomic.Int64
	m := &meter{
		cpu:    func() time.Duration { return time.Duration(cpu.Load()) },
		rss:    func() int64 { reads.Add(1); return rss.Load() },
		period: time.Millisecond,
	}
	// Set-up burns CPU and memory before the window opens.
	cpu.Store(int64(400 * time.Millisecond))
	rss.Store(900)
	rss.Store(100) // set-up's memory is released before Start
	m.Start()
	cpu.Add(int64(250 * time.Millisecond))
	rss.Store(400) // a transient peak inside the window
	for r := reads.Load(); reads.Load() < r+3; {
		time.Sleep(time.Millisecond)
	}
	rss.Store(300)
	m.Stop()
	// The reference pass after the window is not charged.
	cpu.Add(int64(5 * time.Second))
	rss.Store(5000)
	m.Stop()
	if got := m.CPU(); got != 250*time.Millisecond {
		t.Errorf("window CPU = %v, want 250ms", got)
	}
	if got := m.PeakRSS(); got != 400 {
		t.Errorf("window peak RSS = %d, want 400", got)
	}
}

func TestParseStatmRSS(t *testing.T) {
	v, err := parseStatmRSS("12345 678 90 1 0 2 0\n")
	if err != nil || v != 678 {
		t.Errorf("parseStatmRSS = %d, %v; want 678", v, err)
	}
	if _, err := parseStatmRSS("12345"); err == nil {
		t.Error("short statm accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Sparse cumulative buckets: before holds 3 observations (le 0.5),
	// after adds 2 at le 0.25 and 3 at le 1.
	before := parseExposition([]byte(`# TYPE x histogram
x_bucket{le="0.5"} 3
x_bucket{le="+Inf"} 3
x_count 3
`))
	after := parseExposition([]byte(`x_bucket{le="0.25"} 2
x_bucket{le="0.5"} 5
x_bucket{le="1"} 8
x_bucket{le="+Inf"} 8
`))
	pfx := `x_bucket{le="`
	// The window's 5 new observations: 2 at <=0.25, 3 at (0.5, 1].
	if got, ok := histogramQuantile(before, after, pfx, 0.4); !ok || got != 0.25 {
		t.Errorf("q=0.4: %v, %v; want 0.25", got, ok)
	}
	if got, ok := histogramQuantile(before, after, pfx, 0.5); !ok || got != 1 {
		t.Errorf("q=0.5: %v, %v; want 1", got, ok)
	}
	if _, ok := histogramQuantile(after, after, pfx, 0.5); ok {
		t.Error("no new observations, but a quantile came back")
	}
	if math.IsNaN(after[`x_bucket{le="1"}`]) || after[`x_bucket{le="1"}`] != 8 {
		t.Errorf("parseExposition: %v", after)
	}
}
