package comparenb

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// covidCSV mirrors the paper's Figure 2 running example.
const covidCSV = `continent,month,cases
Africa,4,31598
Africa,5,92626
America,4,1104862
America,5,1404912
Asia,4,333821
Asia,5,537584
Europe,4,863874
Europe,5,608110
Oceania,4,2812
Oceania,5,467
`

func loadBigger(t *testing.T) *Dataset {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("region,product,sales\n")
	regions := []string{"north", "south", "east", "west"}
	products := []string{"widget", "gadget", "gizmo"}
	for i := 0; i < 600; i++ {
		r := regions[i%4]
		p := products[i%3]
		v := 100 + (i%4)*40 + (i%3)*5 + i%7
		sb.WriteString(r + "," + p + ",")
		sb.WriteString(strings.TrimSpace(itoa(v)))
		sb.WriteString("\n")
	}
	ds, err := ReadCSV(strings.NewReader(sb.String()), CSVOptions{Name: "sales"})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestReadCSVAndSchema(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(covidCSV), CSVOptions{
		Name: "covid", ForceCategorical: []string{"month"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rel.NumCatAttrs() != 2 || ds.Rel.NumMeasures() != 1 {
		t.Errorf("schema = %d cats, %d meas", ds.Rel.NumCatAttrs(), ds.Rel.NumMeasures())
	}
	if ds.Report == nil || len(ds.Report.Categorical) != 2 {
		t.Errorf("report = %+v", ds.Report)
	}
}

func TestGenerateNotebookEndToEnd(t *testing.T) {
	ds := loadBigger(t)
	cfg := NewConfig()
	cfg.Perms = 200
	cfg.Seed = 5
	cfg.EpsT = 4
	cfg.Threads = 2
	nb, res, err := GenerateNotebook(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.SignificantInsights == 0 {
		t.Fatal("no insights on a strongly structured dataset")
	}
	if nb.NumQueries() == 0 {
		t.Fatal("empty notebook")
	}
	var buf bytes.Buffer
	if err := nb.WriteIPYNB(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"cell_type\"") {
		t.Error("ipynb output malformed")
	}
}

func TestGenerateNilDataset(t *testing.T) {
	if _, err := Generate(nil, NewConfig()); err == nil {
		t.Error("nil dataset: want error")
	}
	if _, err := Generate(&Dataset{}, NewConfig()); err == nil {
		t.Error("nil relation: want error")
	}
}

func TestComparisonAndHypothesisSQL(t *testing.T) {
	ds := loadBigger(t)
	cfg := NewConfig()
	cfg.Perms = 200
	cfg.Seed = 5
	cfg.EpsT = 3
	cfg.Threads = 2
	res, err := Generate(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) == 0 {
		t.Fatal("no queries")
	}
	sq := res.Queries[0]
	sql := ComparisonSQL(ds.Rel, sq.Query)
	if !strings.Contains(sql, "select t1.") || !strings.HasSuffix(sql, ";") {
		t.Errorf("comparison SQL malformed:\n%s", sql)
	}
	hyp := HypothesisSQL(ds.Rel, sq, sq.Supported[0])
	if !strings.Contains(hyp, "hypothesis") {
		t.Errorf("hypothesis SQL malformed:\n%s", hyp)
	}
}

func TestPresetsExported(t *testing.T) {
	if NaiveExact(10, 1).Solver != SolverExact {
		t.Error("NaiveExact preset wrong")
	}
	if WSCUnbApprox(10, 1, 0.2).Sampling != SamplingUnbalanced {
		t.Error("WSCUnbApprox preset wrong")
	}
	if got := WSCRandApprox(10, 1, 0.4).SampleFrac; got != 0.4 {
		t.Errorf("WSCRandApprox frac = %v", got)
	}
}

func TestFromRelation(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader(covidCSV), CSVOptions{ForceCategorical: []string{"month"}})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := FromRelation(ds.Rel)
	if wrapped.Rel != ds.Rel || wrapped.Report != nil {
		t.Error("FromRelation wrapping wrong")
	}
}

func TestProfileDataset(t *testing.T) {
	ds := loadBigger(t)
	p := ProfileDataset(ds)
	if p.Rows != 600 || len(p.Attrs) != 2 || len(p.Measures) != 1 {
		t.Errorf("profile shape: rows=%d attrs=%d meas=%d", p.Rows, len(p.Attrs), len(p.Measures))
	}
	if !strings.Contains(p.String(), "Profile of sales") {
		t.Error("profile render wrong")
	}
}

func TestExtendedTypesExported(t *testing.T) {
	if len(DefaultInsightTypes) != 2 || len(ExtendedInsightTypes) != 3 {
		t.Errorf("type sets: %d / %d", len(DefaultInsightTypes), len(ExtendedInsightTypes))
	}
	if ExtendedInsightTypes[2] != MedianGreater {
		t.Error("median type missing from extended set")
	}
}

func TestLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.csv")
	if err := os.WriteFile(path, []byte(covidCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadCSV(path, CSVOptions{ForceCategorical: []string{"month"}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rel.NumRows() != 10 {
		t.Errorf("rows = %d", ds.Rel.NumRows())
	}
	if _, err := LoadCSV(filepath.Join(dir, "absent.csv"), CSVOptions{}); err == nil {
		t.Error("missing file: want error")
	}
}

func TestSolverHeuristicPlusEndToEnd(t *testing.T) {
	ds := loadBigger(t)
	cfg := NewConfig()
	cfg.Perms = 200
	cfg.Seed = 5
	cfg.EpsT = 3
	cfg.Solver = SolverHeuristicPlus
	res, err := Generate(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Order) == 0 {
		t.Error("2-opt solver produced empty notebook")
	}
	rep := res.Report()
	if rep.Config.Solver != "heuristic+2opt" {
		t.Errorf("report solver = %q", rep.Config.Solver)
	}
}

func TestGenerateContextCancellation(t *testing.T) {
	ds := loadBigger(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateContext(ctx, ds, NewConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := GenerateNotebookContext(ctx, ds, NewConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx (notebook): err = %v, want context.Canceled", err)
	}
}

func TestGenerateTimeBudgetDegradation(t *testing.T) {
	ds := loadBigger(t)
	cfg := NewConfig()
	cfg.Perms = 200
	cfg.Seed = 5
	cfg.EpsT = 4
	cfg.Solver = SolverExact
	cfg.TimeBudget = time.Nanosecond
	nb, res, err := GenerateNotebookContext(context.Background(), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var outcome TAPOutcome = res.TAP
	if !outcome.Degraded || outcome.Solver == "" {
		t.Errorf("nanosecond budget: outcome = %+v, want a named degraded rung", outcome)
	}
	if nb.NumQueries() == 0 {
		t.Error("degraded run produced an empty notebook")
	}
}
