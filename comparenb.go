// Package comparenb automatically generates SQL notebooks of comparison
// queries for exploratory data analysis, implementing Chanson, Labroche,
// Marcel, Rizzi and T'Kindt, "Automatic generation of comparison notebooks
// for interactive data exploration" (EDBT 2022).
//
// Given a single-table dataset whose columns are either categorical
// attributes or numeric measures, the library
//
//  1. runs permutation tests (with Benjamini–Hochberg FDR correction) to
//     find significant comparison insights — "the mean/variance of measure
//     M is greater for B = val than for B = val'";
//  2. evaluates hypothesis queries from in-memory partial aggregates to
//     keep only the comparison queries that actually evidence an insight;
//  3. scores each query by a manifold interestingness (significance ×
//     surprise × conciseness); and
//  4. solves the Traveling Analyst Problem (exactly, or with the paper's
//     sort-by-efficiency heuristic) to pick a short, coherent sequence —
//     the comparison notebook — exportable as Jupyter (.ipynb) or Markdown.
//
// Quick start:
//
//	ds, err := comparenb.LoadCSV("covid.csv", comparenb.CSVOptions{
//		ForceCategorical: []string{"month"},
//	})
//	if err != nil { ... }
//	cfg := comparenb.NewConfig()
//	cfg.EpsT = 10 // ten queries in the notebook
//	res, err := comparenb.Generate(ds, cfg)
//	if err != nil { ... }
//	nb := comparenb.BuildNotebook(res)
//	nb.WriteIPYNB(os.Stdout)
//
// The exported identifiers below alias the implementation packages, so the
// whole public surface lives here.
package comparenb

import (
	"context"
	"fmt"
	"io"

	"comparenb/internal/engine"
	"comparenb/internal/insight"
	"comparenb/internal/metric"
	"comparenb/internal/notebook"
	"comparenb/internal/obs"
	"comparenb/internal/pipeline"
	"comparenb/internal/profile"
	"comparenb/internal/sampling"
	"comparenb/internal/table"
	"comparenb/internal/tap"
)

// Dataset is a loaded single-table dataset.
type Dataset struct {
	// Rel is the columnar relation.
	Rel *Relation
	// Report describes how CSV columns were classified (nil for datasets
	// built programmatically).
	Report *CSVReport
}

// Core data types.
type (
	// Relation is the in-memory columnar table R[A1..An, M1..Mm].
	Relation = table.Relation
	// Builder assembles a Relation row by row.
	Builder = table.Builder
	// CSVOptions controls CSV import (type inference overrides etc.).
	CSVOptions = table.CSVOptions
	// CSVReport describes the loader's decisions.
	CSVReport = table.CSVReport

	// Config controls a generation run; see NewConfig and the presets.
	Config = pipeline.Config
	// Result is everything a run produced (queries, insights, solution).
	Result = pipeline.Result
	// ScoredQuery is a retained comparison query with its interestingness.
	ScoredQuery = pipeline.ScoredQuery
	// Timings is the per-phase runtime breakdown.
	Timings = pipeline.Timings
	// Counts summarises the run.
	Counts = pipeline.Counts
	// TAPOutcome records which solver rung produced the notebook sequence
	// and whether the time budget forced a degradation.
	TAPOutcome = pipeline.TAPOutcome

	// Insight is a significant comparison insight (M, B, val, val', type).
	Insight = insight.Insight
	// Query is the 6-tuple (A, B, val, val', M, agg) of Definition 3.1.
	Query = insight.Query
	// InsightType is mean-greater or variance-greater.
	InsightType = insight.Type

	// Agg is a SQL aggregation function (sum, avg, min, max, count).
	Agg = engine.Agg

	// Notebook is the generated artifact, exportable to ipynb/Markdown.
	Notebook = notebook.Notebook

	// ObsRegistry is a run's observability hub: spans, deterministic
	// counters/gauges and timing histograms, exportable as a Chrome
	// trace, a metrics exposition, or a human summary. Set Config.Obs to
	// a fresh NewObsRegistry() per run to collect; observability never
	// changes outputs.
	ObsRegistry = obs.Registry

	// InterestParams and ConcisenessParams tune §4.2's interestingness.
	InterestParams = metric.InterestParams
	// ConcisenessParams are the α and δ of the conciseness function.
	ConcisenessParams = metric.ConcisenessParams
	// DistanceWeights are the query-part weights of the Hamming distance.
	DistanceWeights = metric.Weights

	// SamplingStrategy selects none/random/unbalanced test sampling.
	SamplingStrategy = sampling.Strategy
	// SolverKind selects the TAP solver (heuristic, exact, top-k).
	SolverKind = pipeline.SolverKind

	// TAPInstance is a standalone Traveling Analyst Problem instance.
	TAPInstance = tap.Instance
	// TAPSolution is an ordered query selection with its totals.
	TAPSolution = tap.Solution
)

// Insight types. MedianGreater is the §7 extension type, enabled by
// setting Config.InsightTypes to ExtendedInsightTypes.
const (
	MeanGreater     = insight.MeanGreater
	VarianceGreater = insight.VarianceGreater
	MedianGreater   = insight.MedianGreater
)

// DefaultInsightTypes are the paper's two insight types (T = 2);
// ExtendedInsightTypes additionally enables median-greater.
var (
	DefaultInsightTypes  = insight.AllTypes
	ExtendedInsightTypes = insight.ExtendedTypes
)

// Sampling strategies (§5.1.2).
const (
	SamplingNone       = sampling.None
	SamplingRandom     = sampling.Random
	SamplingUnbalanced = sampling.Unbalanced
)

// TAP solvers.
const (
	SolverHeuristic     = pipeline.SolverHeuristic
	SolverExact         = pipeline.SolverExact
	SolverTopK          = pipeline.SolverTopK
	SolverHeuristicPlus = pipeline.SolverHeuristicPlus
)

// Aggregation functions.
const (
	Sum   = engine.Sum
	Avg   = engine.Avg
	Min   = engine.Min
	Max   = engine.Max
	Count = engine.Count
)

// NewObsRegistry returns an empty run-scoped observability registry;
// assign it to Config.Obs, run, then export with WriteTrace /
// WriteMetrics / WriteSummary. Call EnableTracing before the run to
// collect spans (counters are always collected).
func NewObsRegistry() *ObsRegistry { return obs.New() }

// NewConfig returns the default configuration (full data, heuristic
// solver, 10-query notebook).
func NewConfig() Config { return pipeline.NewConfig() }

// Presets reproducing the paper's implementations (Tables 3 and 7).
var (
	NaiveExact       = pipeline.NaiveExact
	NaiveApprox      = pipeline.NaiveApprox
	WSCApprox        = pipeline.WSCApprox
	WSCUnbApprox     = pipeline.WSCUnbApprox
	WSCRandApprox    = pipeline.WSCRandApprox
	WSCApproxSig     = pipeline.WSCApproxSig
	WSCApproxSigCred = pipeline.WSCApproxSigCred
)

// LoadCSV loads a dataset from a CSV file with a header row, inferring
// which columns are categorical attributes and which are measures.
func LoadCSV(path string, opts CSVOptions) (*Dataset, error) {
	rel, rep, err := table.FromCSVFile(path, opts)
	if err != nil {
		return nil, err
	}
	return &Dataset{Rel: rel, Report: rep}, nil
}

// ReadCSV is LoadCSV over an io.Reader.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	rel, rep, err := table.FromCSV(r, opts)
	if err != nil {
		return nil, err
	}
	return &Dataset{Rel: rel, Report: rep}, nil
}

// FromRelation wraps a programmatically built relation.
func FromRelation(rel *Relation) *Dataset { return &Dataset{Rel: rel} }

// NewBuilder assembles a Relation row by row: categorical attribute names
// first, then measure names.
func NewBuilder(name string, catNames, measNames []string) *Builder {
	return table.NewBuilder(name, catNames, measNames)
}

// Profile is a dataset profile: per-attribute cardinalities/entropies,
// measure statistics, functional dependencies, and the Lemma 3.2/3.5
// enumeration counts.
type Profile = profile.Profile

// ProfileDataset computes the profile of a dataset — the data-profiling
// step a user would otherwise perform by hand (§1).
func ProfileDataset(ds *Dataset) *Profile { return profile.New(ds.Rel) }

// Generate runs the full pipeline over the dataset.
func Generate(ds *Dataset, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), ds, cfg)
}

// GenerateContext is Generate with cooperative cancellation: cancelling
// ctx abandons the run at the next phase-safe checkpoint and returns
// ctx's error with no partial result. This is the hard stop; the soft,
// always-produce-a-notebook deadline is Config.TimeBudget, under which a
// phase that runs out of its share degrades instead of failing: tests
// stop early, pairs are shed, hypothesis candidates are capped and the
// TAP falls back to a heuristic (Result.Degraded and Result.TAP record
// what gave way).
func GenerateContext(ctx context.Context, ds *Dataset, cfg Config) (*Result, error) {
	if ds == nil || ds.Rel == nil {
		return nil, fmt.Errorf("comparenb: nil dataset")
	}
	return pipeline.GenerateContext(ctx, ds.Rel, cfg)
}

// BuildNotebook renders a generation result as a comparison notebook.
func BuildNotebook(res *Result) *Notebook { return pipeline.BuildNotebook(res) }

// GenerateNotebook is the one-call convenience: Generate + BuildNotebook.
func GenerateNotebook(ds *Dataset, cfg Config) (*Notebook, *Result, error) {
	return GenerateNotebookContext(context.Background(), ds, cfg)
}

// GenerateNotebookContext is GenerateNotebook with cooperative
// cancellation (see GenerateContext).
func GenerateNotebookContext(ctx context.Context, ds *Dataset, cfg Config) (*Notebook, *Result, error) {
	res, err := GenerateContext(ctx, ds, cfg)
	if err != nil {
		return nil, nil, err
	}
	return BuildNotebook(res), res, nil
}

// ComparisonSQL renders a comparison query as the Figure-2 SQL text.
func ComparisonSQL(rel *Relation, q Query) string {
	return pipeline.ComparisonSQL(rel, q)
}

// HypothesisSQL renders the hypothesis query postulating ins for sq.
func HypothesisSQL(rel *Relation, sq ScoredQuery, ins Insight) string {
	return pipeline.HypothesisSQL(rel, sq, ins)
}
