package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"comparenb/internal/datagen"
	"comparenb/internal/table"
)

// testdata/pinned_bytes.txt holds SHA-256 digests of the ipynb, markdown
// and HTML bytes of bytesPins' runs, and of each run's JSON report with
// its "compression" and "timings" keys removed. The digests were generated
// while the cube kernel still read relations of 2,048 rows or more through
// a compressed column view (bit-packed codes; constant, sequence and
// frame-of-reference integer measures), so they pin what that view
// produced: any later column layout must reproduce these bytes.
const pinnedBytesFile = "testdata/pinned_bytes.txt"

// bytesPins are the pinned runs: each case at Threads 1, 2 and 8.
var bytesPins = []struct {
	name string
	rel  func(t *testing.T) *table.Relation
	wsc  bool
}{
	{name: "enedis-4000", rel: enedis4000},
	{name: "enedis-4000-wsc", rel: enedis4000, wsc: true},
	{name: "mixed-20000", rel: func(*testing.T) *table.Relation { return mixedMeasuresRelation(20000, 5) }},
	{name: "wide-3000-wsc", rel: func(*testing.T) *table.Relation { return wideRelation(3000, 60, 7) }, wsc: true},
}

func enedis4000(t *testing.T) *table.Relation {
	ds, err := datagen.ENEDISLike(11, 4000)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Rel
}

// mixedMeasuresRelation spans two cube-build shards and has a measure in
// every regime the compressed view once treated specially: a float
// column, small integers, a constant, a day index (an arithmetic
// sequence), integers with NaN holes, and integers with -0.0 cells.
func mixedMeasuresRelation(rows int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("mixed",
		[]string{"region", "product", "channel"},
		[]string{"score", "units", "flat", "day", "gappy", "negz"})
	cats := make([]string, 3)
	meas := make([]float64, 6)
	negZero := math.Copysign(0, -1)
	for i := 0; i < rows; i++ {
		r := rng.Intn(6)
		cats[0] = string(rune('a' + r))
		cats[1] = string(rune('A' + rng.Intn(5)))
		cats[2] = string(rune('0' + rng.Intn(3)))
		meas[0] = rng.NormFloat64()*10 + float64(r*r)
		meas[1] = float64(rng.Intn(500) + 40*r)
		meas[2] = 42
		meas[3] = float64(18000 + i)
		meas[4] = float64(rng.Intn(50))
		if rng.Intn(7) == 0 {
			meas[4] = math.NaN()
		}
		meas[5] = float64(rng.Intn(3))
		if rng.Intn(11) == 0 {
			meas[5] = negZero
		}
		b.AddRow(cats, meas)
	}
	return b.Build()
}

// wideRelation has three attributes of dom values each. With 3,000 rows
// and dom 60 a cube over all three has barely more groups than one over a
// pair, so Algorithm 2's cover builds that one cube and rolls every pair
// cube up from it.
func wideRelation(rows, dom int, seed int64) *table.Relation {
	rng := rand.New(rand.NewSource(seed))
	b := table.NewBuilder("wide", []string{"a", "b", "c"}, []string{"m0", "m1"})
	cats := make([]string, 3)
	meas := make([]float64, 2)
	var codes [3]int
	for i := 0; i < rows; i++ {
		for k := range cats {
			codes[k] = rng.Intn(dom)
			cats[k] = fmt.Sprintf("%c%02d", 'a'+k, codes[k])
		}
		meas[0] = rng.NormFloat64() + float64(codes[0]%4)
		meas[1] = float64(rng.Intn(100) + 10*(codes[1]%3))
		b.AddRow(cats, meas)
	}
	return b.Build()
}

// pinnedBytesLines runs every pin and returns one digest line per
// (run, threads, artifact).
func pinnedBytesLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, pin := range bytesPins {
		rel := pin.rel(t)
		for _, threads := range []int{1, 2, 8} {
			cfg := NewConfig()
			cfg.Perms = 80
			cfg.Seed = 11
			cfg.Threads = threads
			cfg.EpsT = 5
			cfg.EpsD = 1.5
			cfg.UseWSC = pin.wsc
			res, err := Generate(rel, cfg)
			if err != nil {
				t.Fatalf("%s threads %d: %v", pin.name, threads, err)
			}
			nb := BuildNotebook(res)
			var ipynb, md, html, rep bytes.Buffer
			for _, err := range []error{
				nb.WriteIPYNB(&ipynb), nb.WriteMarkdown(&md), nb.WriteHTML(&html), res.Report().WriteJSON(&rep),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			prefix := fmt.Sprintf("%s threads=%d", pin.name, threads)
			lines = append(lines,
				prefix+" ipynb "+digest(ipynb.Bytes()),
				prefix+" markdown "+digest(md.Bytes()),
				prefix+" html "+digest(html.Bytes()),
				prefix+" report "+digest(normalisedReport(t, rep.Bytes())))
		}
	}
	return lines
}

// normalisedReport drops the report keys that are not a function of the
// inputs alone — "timings" (wall clock) and "compression" (the column
// view's own bookkeeping) — and re-encodes the rest with sorted keys,
// keeping every number's text as written.
func normalisedReport(t *testing.T, data []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	delete(m, "timings")
	delete(m, "compression")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestPipelineBytesMatchPinned checks the notebook, markdown, HTML and
// normalised report bytes of bytesPins against testdata/pinned_bytes.txt.
// UPDATE_GOLDEN=1 rewrites the file; a change that claims byte identity
// must never need to.
func TestPipelineBytesMatchPinned(t *testing.T) {
	got := pinnedBytesLines(t)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		body := "# SHA-256 of the artifacts of bytesPins; checked by TestPipelineBytesMatchPinned.\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(pinnedBytesFile, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinnedBytesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, pinned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
