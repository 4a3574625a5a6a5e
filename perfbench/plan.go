package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"comparenb/internal/pipeline"
	"comparenb/internal/sampling"
	"comparenb/internal/server"
	"comparenb/internal/table"
)

// Workload sizing. Every figure here is fixed: runs of one workload must
// complete the same number of jobs (the daemon keeps every job and its
// artifacts, so peak RSS grows with job count), and the open-loop rate
// comes from the command line (BENCHMARK.json), never from a run-time
// calibration. The closed-loop session rate is about the parent commit's
// capacity on a 2-vCPU x86-64 virtual machine; it only turns --seconds
// into a job count.
const (
	exploreRelations   = 3
	exploreRows        = 5000
	exploreSeedsPerRel = 2
	exploreQueries     = 6
	explorePerms       = 30

	freshPool        = 3
	freshRows        = 40000
	freshQueries     = 8
	freshSampleFrac  = 0.05
	freshSessionsSec = 3.8
)

var (
	exploreDomains = []int{24, 8, 6, 5, 4, 3}
	freshDomains   = []int{8, 6, 5, 4, 4, 3, 3, 2}
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"shared-explore", "fresh-upload"}

// request mirrors the POST /v1/notebooks body internal/server decodes.
// Every workload uses the heuristic solver and no time budget, so a
// notebook's bytes cannot depend on how fast it was produced.
type request struct {
	Relation   string  `json:"relation"`
	Tenant     string  `json:"tenant,omitempty"`
	Queries    int     `json:"queries,omitempty"`
	Perms      int     `json:"perms,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Threads    int     `json:"threads,omitempty"`
	Solver     string  `json:"solver,omitempty"`
	Sampling   string  `json:"sampling,omitempty"`
	SampleFrac float64 `json:"sample_frac,omitempty"`
	WSC        *bool   `json:"wsc,omitempty"`
}

// config mirrors internal/server's buildConfig for the fields the
// workloads set: it is the one-shot reference run's Config, so the
// reference notebook is the one the daemon must serve byte for byte.
func (r request) config() pipeline.Config {
	cfg := pipeline.NewConfig()
	cfg.Name = "server"
	if r.Queries > 0 {
		cfg.EpsT = r.Queries
	}
	if r.Perms > 0 {
		cfg.Perms = r.Perms
	}
	cfg.Seed = r.Seed
	if r.Threads > 0 {
		cfg.Threads = r.Threads
	}
	cfg.Solver = pipeline.SolverHeuristic
	if r.Sampling == "unbalanced" {
		cfg.Sampling = sampling.Unbalanced
		cfg.SampleFrac = r.SampleFrac
	}
	if r.WSC != nil {
		cfg.UseWSC = *r.WSC
	}
	return cfg
}

// relation is one generated CSV, uploaded under name.
type relation struct {
	name string
	csv  []byte
}

// plan is one workload's generated inputs: everything the daemon will
// see is decided here, from the seed, before the daemon starts.
type plan struct {
	workload  string
	nproc     int
	relations []relation
	requests  []request       // the few distinct requests
	order     []int           // measured jobs, as indices into requests
	arrivals  []time.Duration // open-loop send offsets; nil for a closed loop
	clients   int             // closed-loop client count
	upload    bool            // each job is a session: upload, generate, drop
	durable   bool            // the daemon runs on a state dir
	warmups   []int           // set-up jobs, as indices into requests
}

// relationByName returns the plan's relation of that name.
func (p *plan) relationByName(name string) (relation, bool) {
	for _, r := range p.relations {
		if r.name == name {
			return r, true
		}
	}
	return relation{}, false
}

// options is the daemon configuration, wired like cmd/comparenbd with
// logging off: MaxConcurrent = nproc, everything else at its default.
func (p *plan) options(stateDir string) server.Options {
	return server.Options{MaxConcurrent: p.nproc, StateDir: stateDir}
}

// buildPlan generates a workload's inputs from its seed. seconds turns
// into a fixed job count; rate is the shared-explore arrival rate.
func buildPlan(workload string, seed int64, seconds int, rate float64, nproc int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload, nproc: nproc}
	var jobs int
	switch workload {
	case "shared-explore":
		if rate <= 0 {
			return nil, fmt.Errorf("shared-explore needs a positive --explore-rate, got %v", rate)
		}
		jobs = int(math.Round(rate * float64(seconds)))
		rels, err := genRelations(rng, "explore", exploreRelations, exploreRows, exploreDomains, 2)
		if err != nil {
			return nil, err
		}
		p.relations = rels
		for _, rel := range rels {
			for k := 0; k < exploreSeedsPerRel; k++ {
				p.requests = append(p.requests, request{
					Relation: rel.name, Tenant: "explore", Queries: exploreQueries,
					Perms: explorePerms, Seed: rng.Int63n(1 << 30), Threads: 1, Solver: "heuristic",
				})
			}
		}
		p.arrivals = arrivalSchedule(rng.Int63(), rate, jobs)
	case "fresh-upload":
		jobs = int(math.Round(freshSessionsSec * float64(seconds)))
		rels, err := genRelations(rng, "fresh", freshPool, freshRows, freshDomains, 2)
		if err != nil {
			return nil, err
		}
		p.relations = rels
		wsc := true
		for _, rel := range rels {
			p.requests = append(p.requests, request{
				Relation: rel.name, Tenant: "fresh", Queries: freshQueries,
				Seed: rng.Int63n(1 << 30), Threads: nproc, Solver: "heuristic",
				Sampling: "unbalanced", SampleFrac: freshSampleFrac, WSC: &wsc,
			})
		}
		p.clients = 1
		p.upload = true
		p.durable = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if need := minSamplesFor(0.9); jobs < need {
		return nil, fmt.Errorf("%s: %d jobs in %ds leave fewer than %d beyond p90; need at least %d",
			workload, jobs, seconds, minBeyond, need)
	}
	// A balanced mix in seeded order: every distinct request runs the
	// same number of times (±1), so the work in a run does not wander
	// with how often the seed happened to draw the expensive request.
	p.order = make([]int, jobs)
	for i, k := range rng.Perm(jobs) {
		p.order[i] = k % len(p.requests)
	}
	// Warm-up: every distinct request once. It fills the cube cache and
	// finishes each relation's lazy encoding.
	for i := range p.requests {
		p.warmups = append(p.warmups, i)
	}
	return p, nil
}

// genRelations generates n relations of one shape, each rendered as
// the CSV the daemon will load.
func genRelations(rng *rand.Rand, prefix string, n, rows int, domains []int, measures int) ([]relation, error) {
	out := make([]relation, n)
	for i := range out {
		name := fmt.Sprintf("%s-%d", prefix, i)
		var buf bytes.Buffer
		if err := genRelation(rng, name, rows, domains, measures).WriteCSV(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", name, err)
		}
		out[i] = relation{name: name, csv: buf.Bytes()}
	}
	return out, nil
}

// genRelation draws a relation whose planted effects are a fixed
// function of (attribute, value, measure) and whose rows come from rng:
// Zipf-like value frequencies (s = 0.5), mean offsets of up to ±0.45σ
// and a doubled noise scale on every fifth value. The last attribute is
// derived from the first (an exact functional dependency for the FD
// pre-processing to find). The seed moves which rows land where and
// their noise, not the effect structure, so the number of significant
// insights — and with it the work per job — stays put from seed to
// seed.
func genRelation(rng *rand.Rand, name string, rows int, domains []int, measures int) *table.Relation {
	n := len(domains)
	catNames := make([]string, n)
	for a := range catNames {
		catNames[a] = fmt.Sprintf("cat%d", a)
	}
	measNames := make([]string, measures)
	for m := range measNames {
		measNames[m] = fmt.Sprintf("meas%d", m)
	}
	cum := make([][]float64, n)
	for a, d := range domains {
		cum[a] = make([]float64, d)
		total := 0.0
		for v := 0; v < d; v++ {
			total += 1 / math.Sqrt(float64(v+1))
			cum[a][v] = total
		}
		for v := range cum[a] {
			cum[a][v] /= total
		}
	}
	const baseMean, baseSD = 100.0, 20.0
	offset := func(a, v, m int) float64 { return float64((a*31+v*17+m*7)%7-3) * 0.15 * baseSD }
	b := table.NewBuilder(name, catNames, measNames)
	cats := make([]string, n)
	codes := make([]int, n)
	meas := make([]float64, measures)
	for r := 0; r < rows; r++ {
		scale := 1.0
		for a := range domains {
			v := 0
			if a == n-1 && n > 2 && domains[a] <= domains[0] {
				v = codes[0] % domains[a]
			} else {
				u := rng.Float64()
				for v < len(cum[a])-1 && cum[a][v] < u {
					v++
				}
			}
			codes[a] = v
			cats[a] = fmt.Sprintf("a%d_v%03d", a, v)
			if v%5 == 4 {
				scale = 2
			}
		}
		for m := range meas {
			off := 0.0
			for a, v := range codes {
				off += offset(a, v, m)
			}
			meas[m] = baseMean + off + rng.NormFloat64()*baseSD*scale
		}
		b.AddRow(cats, meas)
	}
	return b.Build()
}
