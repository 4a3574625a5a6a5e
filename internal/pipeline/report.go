package pipeline

import (
	"encoding/json"
	"io"
	"time"
)

// Report is a machine-readable summary of a generation run, for tooling
// and regression tracking. Build one with Result.Report and serialise it
// with WriteJSON.
type Report struct {
	Dataset  string          `json:"dataset"`
	Rows     int             `json:"rows"`
	Config   ReportConfig    `json:"config"`
	Counts   Counts          `json:"counts"`
	Timings  ReportTimings   `json:"timings"`
	Insights []ReportInsight `json:"insights"`
	Notebook []ReportQuery   `json:"notebook"`

	// TAP solution quality.
	TotalInterest float64 `json:"total_interest"`
	TotalDistance float64 `json:"total_distance"`
	ExactOptimal  *bool   `json:"exact_optimal,omitempty"`
	// Degradation record: present only when the time budget expired and
	// the anytime ladder answered with a heuristic rung, so unbudgeted
	// (and generously budgeted) runs serialise byte-identically to
	// reports written before TimeBudget existed.
	TAPSolver   string `json:"tap_solver,omitempty"`
	TAPDegraded bool   `json:"tap_degraded,omitempty"`
	// TAPGap is a pointer so a certified zero gap still serialises on
	// degraded runs.
	TAPGap *float64 `json:"tap_gap,omitempty"`
	// Per-phase degradation record (Result.Degraded). All omitempty for
	// the same reason as the TAP fields: a run that conceded nothing
	// serialises byte-identically to one from before the governor existed.
	PhaseDegraded  []string `json:"phase_degraded,omitempty"`
	PermsEffective int      `json:"perms_effective,omitempty"`
	PairsSkipped   int      `json:"pairs_skipped,omitempty"`
	HypoDropped    int      `json:"hypo_dropped,omitempty"`
	MemEvictions   int      `json:"mem_evictions,omitempty"`
}

// ReportConfig is the subset of Config worth recording.
type ReportConfig struct {
	Name       string  `json:"name"`
	Sampling   string  `json:"sampling"`
	SampleFrac float64 `json:"sample_frac,omitempty"`
	Perms      int     `json:"perms"`
	Alpha      float64 `json:"alpha"`
	BHScope    string  `json:"bh_scope"`
	EpsT       int     `json:"eps_t"`
	EpsD       float64 `json:"eps_d"`
	Solver     string  `json:"solver"`
	UseWSC     bool    `json:"use_wsc"`
	Threads    int     `json:"threads"`
	// CacheBudget is the cube-cache bound in bytes (<= 0 = unbounded).
	CacheBudget int64 `json:"cube_cache_budget"`
	Seed        int64 `json:"seed"`
	// TimeBudgetMillis is the soft wall-clock budget (omitted when the
	// run was unbudgeted).
	TimeBudgetMillis float64 `json:"time_budget_ms,omitempty"`
	// MemBudgetBytes is the hard cube-cache memory budget (omitted when
	// disarmed).
	MemBudgetBytes int64 `json:"mem_budget,omitempty"`
}

// ReportTimings is Timings in milliseconds for JSON friendliness.
type ReportTimings struct {
	FDMillis    float64 `json:"fd_ms"`
	StatsMillis float64 `json:"stat_tests_ms"`
	HypoMillis  float64 `json:"hypo_eval_ms"`
	TAPMillis   float64 `json:"tap_ms"`
	TotalMillis float64 `json:"total_ms"`
}

// ReportInsight is one significant insight in human/JSON form.
type ReportInsight struct {
	Measure     string  `json:"measure"`
	Attribute   string  `json:"attribute"`
	Val         string  `json:"val"`
	Val2        string  `json:"val2"`
	Type        string  `json:"type"`
	Sig         float64 `json:"sig"`
	Effect      float64 `json:"effect"`
	Credibility int     `json:"credibility"`
	NumHypo     int     `json:"num_hypo"`
}

// ReportQuery is one notebook step.
type ReportQuery struct {
	Step     int     `json:"step"`
	GroupBy  string  `json:"group_by"`
	Attr     string  `json:"attr"`
	Val      string  `json:"val"`
	Val2     string  `json:"val2"`
	Measure  string  `json:"measure"`
	Agg      string  `json:"agg"`
	Interest float64 `json:"interest"`
	Insights int     `json:"insights"`
	SQL      string  `json:"sql"`
}

// Report builds the summary.
func (r *Result) Report() Report {
	rel := r.Relation
	rep := Report{
		Dataset: rel.Name(),
		Rows:    rel.NumRows(),
		Config: ReportConfig{
			Name:        r.Config.Name,
			Sampling:    r.Config.Sampling.String(),
			SampleFrac:  r.Config.SampleFrac,
			Perms:       r.Config.Perms,
			Alpha:       r.Config.Alpha,
			BHScope:     r.Config.BHScope.String(),
			EpsT:        r.Config.EpsT,
			EpsD:        r.Config.EpsD,
			Solver:      r.Config.Solver.String(),
			UseWSC:      r.Config.UseWSC,
			Threads:     r.Config.threads(),
			CacheBudget: r.Config.CubeCacheBudget,
			Seed:        r.Config.Seed,
		},
		Counts:        r.Counts,
		Timings:       toReportTimings(r.Timings),
		TotalInterest: r.Solution.TotalInterest,
		TotalDistance: r.Solution.TotalDist,
	}
	if r.Config.TimeBudget > 0 {
		rep.Config.TimeBudgetMillis = float64(r.Config.TimeBudget) / float64(time.Millisecond)
	}
	if r.ExactStats != nil {
		opt := r.ExactStats.Certified
		rep.ExactOptimal = &opt
	}
	if r.Config.MemBudget > 0 {
		rep.Config.MemBudgetBytes = r.Config.MemBudget
	}
	if r.TAP.Degraded {
		rep.TAPSolver = r.TAP.Solver
		rep.TAPDegraded = true
		gap := r.TAP.Gap
		rep.TAPGap = &gap
	}
	if r.Degraded.Any() {
		rep.PhaseDegraded = r.Degraded.Phases
		rep.PermsEffective = r.Degraded.PermsEffective
		rep.PairsSkipped = r.Degraded.PairsSkipped
		rep.HypoDropped = r.Degraded.HypoDropped
		rep.MemEvictions = r.Degraded.MemEvictions
	}
	for _, ins := range r.Insights {
		rep.Insights = append(rep.Insights, ReportInsight{
			Measure:     rel.MeasName(ins.Meas),
			Attribute:   rel.CatName(ins.Attr),
			Val:         rel.Value(ins.Attr, ins.Val),
			Val2:        rel.Value(ins.Attr, ins.Val2),
			Type:        ins.Type.String(),
			Sig:         ins.Sig,
			Effect:      ins.Effect,
			Credibility: ins.Credibility,
			NumHypo:     ins.NumHypo,
		})
	}
	for i, sq := range r.Sequence() {
		q := sq.Query
		rep.Notebook = append(rep.Notebook, ReportQuery{
			Step:     i + 1,
			GroupBy:  rel.CatName(q.GroupBy),
			Attr:     rel.CatName(q.Attr),
			Val:      rel.Value(q.Attr, q.Val),
			Val2:     rel.Value(q.Attr, q.Val2),
			Measure:  rel.MeasName(q.Meas),
			Agg:      q.Agg.String(),
			Interest: sq.Interest,
			Insights: len(sq.Supported),
			SQL:      ComparisonSQL(rel, q),
		})
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func toReportTimings(t Timings) ReportTimings {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ReportTimings{
		FDMillis:    ms(t.FD),
		StatsMillis: ms(t.StatTests),
		HypoMillis:  ms(t.HypoEval),
		TAPMillis:   ms(t.TAP),
		TotalMillis: ms(t.Total),
	}
}
