package pipeline

import (
	"bytes"
	"testing"

	"comparenb/internal/datagen"
)

// renderAll runs the full generate→notebook pipeline once and returns
// every serialised artifact: the ipynb, the Markdown, the HTML and the
// JSON run report.
func renderAll(t *testing.T, cfg Config) (ipynb, md, html, report []byte) {
	t.Helper()
	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb := BuildNotebook(res)
	var bufIpynb, bufMD, bufHTML, bufReport bytes.Buffer
	if err := nb.WriteIPYNB(&bufIpynb); err != nil {
		t.Fatal(err)
	}
	if err := nb.WriteMarkdown(&bufMD); err != nil {
		t.Fatal(err)
	}
	if err := nb.WriteHTML(&bufHTML); err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	rep.Timings = ReportTimings{} // wall-clock timings legitimately differ
	rep.Config.Threads = 0        // recorded worker width, not content
	if err := rep.WriteJSON(&bufReport); err != nil {
		t.Fatal(err)
	}
	return bufIpynb.Bytes(), bufMD.Bytes(), bufHTML.Bytes(), bufReport.Bytes()
}

// TestPipelineDeterminism is the contract the maporder analyzer exists to
// protect: two full pipeline runs on the same seeded dataset must produce
// byte-identical notebooks in every output format — with a multi-threaded
// worker pool and hypothesis cells enabled, so both parallel scheduling
// and map-iteration nondeterminism would be caught here.
func TestPipelineDeterminism(t *testing.T) {
	cfg := NewConfig()
	cfg.Perms = 150
	cfg.Seed = 7
	cfg.Threads = 4
	cfg.EpsT = 5
	cfg.EpsD = 1.5
	cfg.Interest.UseConciseness = true
	cfg.IncludeHypotheses = true

	ipynb1, md1, html1, rep1 := renderAll(t, cfg)
	ipynb2, md2, html2, rep2 := renderAll(t, cfg)

	check := func(name string, a, b []byte) {
		t.Helper()
		if len(a) == 0 {
			t.Fatalf("%s: first run produced no output", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two runs on the same seed (%d vs %d bytes)", name, len(a), len(b))
		}
	}
	check("ipynb", ipynb1, ipynb2)
	check("markdown", md1, md2)
	check("html", html1, html2)
	check("report", rep1, rep2)
}

// TestPipelineDeterminismAcrossThreadCounts pins the stronger property the
// per-job seeding (jobSeed), the sharded cube build and the block-seeded
// permutation streams promise together: every output format is
// byte-identical no matter how wide the worker pools run.
func TestPipelineDeterminismAcrossThreadCounts(t *testing.T) {
	cfg := NewConfig()
	cfg.Perms = 150
	cfg.Seed = 7
	cfg.EpsT = 5
	cfg.EpsD = 1.5

	cfg.Threads = 1
	ipynb1, md1, _, rep1 := renderAll(t, cfg)
	for _, threads := range []int{2, 8} {
		cfg.Threads = threads
		ipynb, md, _, rep := renderAll(t, cfg)
		if !bytes.Equal(ipynb1, ipynb) {
			t.Errorf("ipynb differs between Threads=1 and Threads=%d (%d vs %d bytes)", threads, len(ipynb1), len(ipynb))
		}
		if !bytes.Equal(md1, md) {
			t.Errorf("markdown differs between Threads=1 and Threads=%d (%d vs %d bytes)", threads, len(md1), len(md))
		}
		if !bytes.Equal(rep1, rep) {
			t.Errorf("report differs between Threads=1 and Threads=%d (%d vs %d bytes)", threads, len(rep1), len(rep))
		}
	}
}

// TestPipelineCacheCounters checks the run's cube cache is actually doing
// the sharing the design promises: a standard run records hits or rollups,
// and an unbounded budget never evicts.
func TestPipelineCacheCounters(t *testing.T) {
	cfg := NewConfig()
	cfg.Perms = 100
	cfg.Seed = 7
	cfg.EpsT = 5
	cfg.UseWSC = true       // the sharing path under test
	cfg.CubeCacheBudget = 0 // unbounded

	ds, err := datagen.Tiny(7, 900)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(ds.Rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.cache.Stats()
	if cs.Misses == 0 {
		t.Error("no cube was ever built from the base relation")
	}
	if cs.Hits+cs.RollupHits == 0 {
		t.Error("cache recorded no reuse at all across the phases")
	}
	if cs.Evictions != 0 {
		t.Errorf("unbounded cache evicted %d entries", cs.Evictions)
	}
	if res.Counts.CacheMisses != int(cs.Misses) || res.Counts.CubesBuilt != int(cs.Misses) {
		t.Errorf("Counts (%d built / %d misses) disagree with cache stats (%d)",
			res.Counts.CubesBuilt, res.Counts.CacheMisses, cs.Misses)
	}
	// BuildNotebook's verification tables answer from the same cache.
	before := cs.Hits + cs.RollupHits
	BuildNotebook(res)
	after := res.cache.Stats()
	if after.Hits+after.RollupHits <= before {
		t.Error("notebook verification queries did not touch the cache")
	}
	if after.Misses != cs.Misses {
		t.Errorf("notebook rendering rebuilt cubes from the relation: misses %d -> %d", cs.Misses, after.Misses)
	}
}
