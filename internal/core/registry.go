package core

import (
	"runtime"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
)

// The analysis registry is the single list of every study analysis.
// RunStudy taps each era's entries into that era's world as it runs, and
// cmd/analyze runs them all over a single dumped log — one source of
// truth, so the in-process and offline pipelines cannot drift.

// Era identifies which observation-window world an analysis draws from in
// the full study (Table 1's datasets come from different time windows).
type Era int

const (
	Era2011 Era = iota // October–December 2011: retention baseline, contact risk
	Era2012            // November 2012: most datasets, decoys, Forms pages
	Era2013            // February 2013: recovery claims
	Era2014            // January 2014: attribution, curated phishing review
	EraBase            // low-intensity world calibrated to the paper's base rates
	eraCount
)

func (e Era) String() string {
	switch e {
	case Era2011:
		return "2011"
	case Era2012:
		return "2012"
	case Era2013:
		return "2013"
	case Era2014:
		return "2014"
	case EraBase:
		return "base"
	}
	return "?"
}

// AnalysisInput is everything a registry analysis may read. Log is always
// set. Start/End bound the observation window — offline loads take them
// from the dump header, because the first record's timestamp is not the
// window start. Plan is the synthetic IP plan (deterministic, so offline
// callers reconstruct it with DefaultIPPlan). Dir is the live account
// directory; it is nil for offline replay, which disables the NeedsDir
// analyses — population state never reaches the event log.
type AnalysisInput struct {
	Log   *logstore.Store
	Start time.Time
	End   time.Time
	Plan  *geo.IPPlan
	Dir   *identity.Directory
	// Scale is the study's sample-size scale; 0 means 1.0.
	Scale float64
}

// Analysis is one registry entry: a named computation that reads an
// AnalysisInput and writes exactly one StudyReport field — the property
// that makes the fan-out deterministic at any parallelism.
type Analysis struct {
	Name string
	Era  Era
	// NeedsDir marks analyses that consult the live directory (contact
	// graphs, secondary-email state, activity). They are skipped when
	// replaying a dumped log, where only events survive.
	NeedsDir bool
	// Stream returns the analysis's incremental builder, configured with
	// the parameters the study reports it at. Stream reads only in's
	// window, plan, scale and directory pointer, never its log, so RunStudy
	// builds it before its world runs and feeds it every record as the
	// world appends it. RunAnalyses, over a finished log, feeds it every
	// record once, in log order, one storage unit at a time.
	Stream func(in AnalysisInput) StreamAnalysis
}

// StreamAnalysis is one analysis in builder form: events are folded in one
// at a time (in log order) and the result is written to its report field
// at the end. Builders are single-goroutine; the runner serializes feeds.
type StreamAnalysis interface {
	Observe(e event.Event)
	Finalize(r *StudyReport)
}

// MergeableAnalysis is declared for the benchmark harness in perfbench/,
// whose core.merge_s probe names it; no analysis implements it, so that
// probe reads 0. It goes when the probe does.
type MergeableAnalysis interface {
	StreamAnalysis
	NewShard() MergeableAnalysis
	Merge(shard MergeableAnalysis)
}

// streamed packages a builder's observe/finalize pair as a StreamAnalysis.
type streamed struct {
	observe  func(event.Event)
	finalize func(*StudyReport)
}

func (s streamed) Observe(e event.Event)   { s.observe(e) }
func (s streamed) Finalize(r *StudyReport) { s.finalize(r) }

// riskSweepThresholds is the §8.1 operating-point grid.
var riskSweepThresholds = []float64{0.3, 0.4, 0.5, 0.58, 0.62, 0.7, 0.8, 0.9}

// registry holds every analysis of the study, in report order. An entry's
// builder is the analysis's one definition: the study's fold at append,
// RunAnalyses' fold over a finished log, and the online-streaming
// (internal/stream) paths all feed it every record once, in log order, and
// none needs more than that.
var registry = []Analysis{
	// ---- 2011 era ----
	{Name: "retention-2011", Era: Era2011, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewRetentionBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Retention2011 = b.Retention(600) }}
	}},
	{Name: "contact-risk", Era: Era2011, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewContactRiskBuilder()
		return streamed{b.Observe, func(r *StudyReport) {
			// Cohorts form four days after background campaigns stop, so the
			// backlog of mass-campaign conversions is flushed and the outcome
			// window isolates the hijacker contact-targeting loop.
			cutoff := in.Start.Add(19 * 24 * time.Hour)
			r.ContactRisk = b.ContactRisk(
				in.Dir, cutoff, 8*24*time.Hour, 56*24*time.Hour,
				scaleInt(3000, in.Scale, 200))
		}}
	}},

	// ---- 2012 era — the big fan-out ----
	{Name: "figure-3", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure3Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig3 = b.Figure3(100) }}
	}},
	{Name: "figure-4", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure4Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig4 = b.Figure4(100) }}
	}},
	{Name: "figure-5", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure5Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig5 = b.Figure5(100, 25) }}
	}},
	{Name: "figure-6", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure6Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig6 = b.Figure6(100) }}
	}},
	{Name: "figure-7", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure7Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig7 = b.Figure7() }}
	}},
	{Name: "figure-8", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure8Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig8 = b.Figure8() }}
	}},
	{Name: "table-3", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewTable3Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Table3 = b.Table3() }}
	}},
	{Name: "assessment", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewAssessmentBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Assessment = b.Assessment(575) }}
	}},
	{Name: "exploitation", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewExploitationBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Exploitation = b.Exploitation(575) }}
	}},
	{Name: "retention-2012", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewRetentionBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Retention2012 = b.Retention(575) }}
	}},
	{Name: "figure-9", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure9Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig9 = b.Figure9(5000) }}
	}},
	{Name: "figure-12", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure12Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig12 = b.Figure12(300) }}
	}},
	{Name: "behavior-detector", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewBehaviorEvalBuilder(behavior.DefaultConfig())
		return streamed{b.Observe, func(r *StudyReport) { r.Behavior = b.DetectionEval() }}
	}},
	{Name: "risk-sweep", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewRiskSweepBuilder(riskSweepThresholds)
		return streamed{b.Observe, func(r *StudyReport) { r.RiskSweep = b.Sweep() }}
	}},
	{Name: "work-schedule", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewWorkScheduleBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Schedule = b.WorkSchedule() }}
	}},
	{Name: "doppelganger", Era: Era2012, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewDoppelgangerBuilder(in.Dir, 0.75)
		return streamed{b.Observe, func(r *StudyReport) { r.Doppelganger = b.DoppelgangerEval() }}
	}},
	{Name: "monetization", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewMonetizationBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Monetization = b.Monetization() }}
	}},
	{Name: "lifecycle", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewLifecycleBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Lifecycle = b.Lifecycle() }}
	}},
	{Name: "archetype-scorecard", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewArchetypeScorecardBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.ArchetypeScorecard = b.Scorecard() }}
	}},

	// ---- 2013 era ----
	{Name: "figure-10", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure10Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig10 = b.Figure10(in.Start, in.End) }}
	}},
	{Name: "recovery-channels", Era: Era2013, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewRecoveryChannelsBuilder()
		return streamed{b.Observe, func(r *StudyReport) {
			secTotal, secRecycled := secondaryCountsDir(in.Dir)
			r.Channels = b.RecoveryChannels(secTotal, secRecycled)
		}}
	}},
	{Name: "remission", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewRemissionBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Remission = b.Remission() }}
	}},

	// ---- 2014 era ----
	{Name: "table-2", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewPhishSampleBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.Table2 = b.Table2(100) }}
	}},
	{Name: "url-share", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewPhishSampleBuilder()
		return streamed{b.Observe, func(r *StudyReport) { r.URLShare = b.URLShare(100) }}
	}},
	{Name: "figure-11", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewFigure11Builder()
		return streamed{b.Observe, func(r *StudyReport) { r.Fig11 = b.Figure11(in.Plan, 3000) }}
	}},

	// ---- base rates ----
	{Name: "base-rates", Era: EraBase, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewBaseRatesBuilder(in.Start)
		return streamed{b.Observe, func(r *StudyReport) {
			active := 0
			in.Dir.All(func(a *identity.Account) {
				if a.Active(in.End) {
					active++
				}
			})
			r.BaseRates = b.BaseRates(in.Start, in.End, active)
		}}
	}},
}

// Registry returns the full analysis registry in report order. Callers
// must not mutate the entries.
func Registry() []Analysis {
	return append([]Analysis(nil), registry...)
}

// worldInput packages a world for the registry. Its log may still be
// empty: builders read the log only through the records fed to them.
func worldInput(w *World, scale float64) AnalysisInput {
	return AnalysisInput{
		Log:   w.Log,
		Start: w.Cfg.Start,
		End:   w.End(),
		Plan:  w.Plan,
		Dir:   w.Dir,
		Scale: scale,
	}
}

// RunAnalyses folds every applicable registry analysis over one finished
// log (typically a dump reloaded by cmd/analyze) and returns the report
// plus the names of analyses skipped because they need the live
// directory. par follows StudyConfig.Parallelism semantics: 0 means
// GOMAXPROCS, 1 runs sequentially. The result is deterministic at any
// parallelism and for any layout of the log: every builder sees every
// record once, in log order, and writes a distinct report field.
func RunAnalyses(in AnalysisInput, par int) (*StudyReport, []string) {
	if in.Scale <= 0 {
		in.Scale = 1
	}
	var entries []Analysis
	var skipped []string
	for _, a := range registry {
		if a.NeedsDir && in.Dir == nil {
			skipped = append(skipped, a.Name)
			continue
		}
		entries = append(entries, a)
	}
	r := &StudyReport{}
	foldLog(in, entries, r, par)
	return r, skipped
}

// foldLog builds the builders of entries against in, folds in's log
// through them and finalizes them into r. Log.ScanSegments hands over the
// log one storage unit at a time, in order: the whole log for an in-RAM
// store, one decoded segment for a segmented one. Each builder folds the
// unit as its own job on a pool of par workers, and every job ends before
// the next unit is handed over.
func foldLog(in AnalysisInput, entries []Analysis, r *StudyReport, par int) {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	builders := make([]StreamAnalysis, len(entries))
	for i, a := range entries {
		builders[i] = a.Stream(in)
	}
	jobs := make([]func(), len(builders))
	in.Log.ScanSegments(func(_ int, events []event.Event) {
		for i, b := range builders {
			jobs[i] = func() {
				for _, e := range events {
					b.Observe(e)
				}
			}
		}
		runAll(par, jobs)
	})
	for _, b := range builders {
		b.Finalize(r)
	}
}

// secondaryCountsDir tallies the population's secondary-email totals for
// the §6.3 channel-reliability estimate.
func secondaryCountsDir(dir *identity.Directory) (total, recycled int) {
	dir.All(func(a *identity.Account) {
		if a.SecondaryEmail != "" {
			total++
			if a.SecondaryRecycled {
				recycled++
			}
		}
	})
	return total, recycled
}
