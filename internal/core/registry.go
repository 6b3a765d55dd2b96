package core

import (
	"runtime"
	"sync"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
)

// The analysis registry is the single list of every study analysis.
// RunStudy iterates it with era-appropriate world inputs, and cmd/analyze
// iterates it over a single dumped log — one source of truth, so the
// in-process and offline pipelines cannot drift.

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
	// the parameters the study reports it at. On an in-RAM log each entry
	// scans the whole log through its own builder. On a segmented
	// (spilled-to-disk) log, every analysis of an era is fed from ONE
	// ordered scan — each segment is decoded once per pass instead of once
	// per analysis — and finalized into its report field. Builders that
	// additionally implement MergeableAnalysis are folded as one shard per
	// segment on a worker pool and merged back in segment order, so the
	// single decode pass also stops serializing the fold.
	Stream func(in AnalysisInput) StreamAnalysis
}

// StreamAnalysis is one analysis in builder form: events are folded in one
// at a time (in log order) and the result is written to its report field
// at the end. Builders are single-goroutine; the runner serializes feeds.
type StreamAnalysis interface {
	Observe(e event.Event)
	Finalize(r *StudyReport)
}

// MergeableAnalysis is an optional capability on StreamAnalysis: an
// analysis whose fold is partitionable. NewShard returns a fresh builder
// with the same configuration; Merge folds a shard that observed a later,
// contiguous partition of the log into the receiver. The contract is
// exact, not approximate: merging per-partition shards in log order must
// reproduce the very state a single sequential pass builds — slice
// orders, dedup winners, and float summation order included — which is
// what keeps segmented study reports byte-identical to monolithic ones.
// Order-sensitive builders (live session state machines, cross-segment
// page joins, first-hit anchored series) simply do not implement it and
// stay on the ordered scan.
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

// merged adapts a concrete builder type carrying a typed Merge method into
// a MergeableAnalysis: the registry entry supplies the constructor
// (capturing the builder's configuration, so shards are configured
// identically) and the finalizer; the adapter wires NewShard and Merge
// through the builder's own Merge.
type merged[B interface {
	Observe(event.Event)
	Merge(B)
}] struct {
	b        B
	newB     func() B
	finalize func(B, *StudyReport)
}

func (m merged[B]) Observe(e event.Event)   { m.b.Observe(e) }
func (m merged[B]) Finalize(r *StudyReport) { m.finalize(m.b, r) }
func (m merged[B]) NewShard() MergeableAnalysis {
	return merged[B]{b: m.newB(), newB: m.newB, finalize: m.finalize}
}
func (m merged[B]) Merge(shard MergeableAnalysis) { m.b.Merge(shard.(merged[B]).b) }

// mergeable builds the registry's standard MergeableAnalysis from a
// builder constructor and a finalizer.
func mergeable[B interface {
	Observe(event.Event)
	Merge(B)
}](newB func() B, fin func(B, *StudyReport)) StreamAnalysis {
	return merged[B]{b: newB(), newB: newB, finalize: fin}
}

// riskSweepThresholds is the §8.1 operating-point grid.
var riskSweepThresholds = []float64{0.3, 0.4, 0.5, 0.58, 0.62, 0.7, 0.8, 0.9}

// registry holds every analysis of the study, in report order. An entry's
// builder is the analysis's one definition: the monolithic, the segmented
// and the online-streaming (internal/stream) paths all run it. Entries
// built with mergeable() additionally fold as per-segment shards on the
// segmented path; the handful built with streamed{} are order-sensitive
// (session state machines, cross-segment page joins, first-hit anchors)
// and fold inline on the ordered scan.
var registry = []Analysis{
	// ---- 2011 era ----
	{Name: "retention-2011", Era: Era2011, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewRetentionBuilder, func(b *analysis.RetentionBuilder, r *StudyReport) {
			r.Retention2011 = b.Retention(600)
		})
	}},
	{Name: "contact-risk", Era: Era2011, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewContactRiskBuilder, func(b *analysis.ContactRiskBuilder, r *StudyReport) {
			// Cohorts form four days after background campaigns stop, so the
			// backlog of mass-campaign conversions is flushed and the outcome
			// window isolates the hijacker contact-targeting loop.
			cutoff := in.Start.Add(19 * 24 * time.Hour)
			r.ContactRisk = b.ContactRisk(
				in.Dir, cutoff, 8*24*time.Hour, 56*24*time.Hour,
				scaleInt(3000, in.Scale, 200))
		})
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
		return mergeable(analysis.NewFigure7Builder, func(b *analysis.Figure7Builder, r *StudyReport) {
			r.Fig7 = b.Figure7()
		})
	}},
	{Name: "figure-8", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewFigure8Builder, func(b *analysis.Figure8Builder, r *StudyReport) {
			r.Fig8 = b.Figure8()
		})
	}},
	{Name: "table-3", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewTable3Builder, func(b *analysis.Table3Builder, r *StudyReport) {
			r.Table3 = b.Table3()
		})
	}},
	{Name: "assessment", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewAssessmentBuilder, func(b *analysis.AssessmentBuilder, r *StudyReport) {
			r.Assessment = b.Assessment(575)
		})
	}},
	{Name: "exploitation", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewExploitationBuilder, func(b *analysis.ExploitationBuilder, r *StudyReport) {
			r.Exploitation = b.Exploitation(575)
		})
	}},
	{Name: "retention-2012", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewRetentionBuilder, func(b *analysis.RetentionBuilder, r *StudyReport) {
			r.Retention2012 = b.Retention(575)
		})
	}},
	{Name: "figure-9", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewFigure9Builder, func(b *analysis.Figure9Builder, r *StudyReport) {
			r.Fig9 = b.Figure9(5000)
		})
	}},
	{Name: "figure-12", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewFigure12Builder, func(b *analysis.Figure12Builder, r *StudyReport) {
			r.Fig12 = b.Figure12(300)
		})
	}},
	{Name: "behavior-detector", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		b := analysis.NewBehaviorEvalBuilder(behavior.DefaultConfig())
		return streamed{b.Observe, func(r *StudyReport) { r.Behavior = b.DetectionEval() }}
	}},
	{Name: "risk-sweep", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(func() *analysis.RiskSweepBuilder {
			return analysis.NewRiskSweepBuilder(riskSweepThresholds)
		}, func(b *analysis.RiskSweepBuilder, r *StudyReport) {
			r.RiskSweep = b.Sweep()
		})
	}},
	{Name: "work-schedule", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewWorkScheduleBuilder, func(b *analysis.WorkScheduleBuilder, r *StudyReport) {
			r.Schedule = b.WorkSchedule()
		})
	}},
	{Name: "doppelganger", Era: Era2012, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(func() *analysis.DoppelgangerBuilder {
			return analysis.NewDoppelgangerBuilder(in.Dir, 0.75)
		}, func(b *analysis.DoppelgangerBuilder, r *StudyReport) {
			r.Doppelganger = b.DoppelgangerEval()
		})
	}},
	{Name: "monetization", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewMonetizationBuilder, func(b *analysis.MonetizationBuilder, r *StudyReport) {
			r.Monetization = b.Monetization()
		})
	}},
	{Name: "lifecycle", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewLifecycleBuilder, func(b *analysis.LifecycleBuilder, r *StudyReport) {
			r.Lifecycle = b.Lifecycle()
		})
	}},
	{Name: "archetype-scorecard", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewArchetypeScorecardBuilder, func(b *analysis.ArchetypeScorecardBuilder, r *StudyReport) {
			r.ArchetypeScorecard = b.Scorecard()
		})
	}},

	// ---- 2013 era ----
	{Name: "figure-10", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewFigure10Builder, func(b *analysis.Figure10Builder, r *StudyReport) {
			r.Fig10 = b.Figure10(in.Start, in.End)
		})
	}},
	{Name: "recovery-channels", Era: Era2013, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewRecoveryChannelsBuilder, func(b *analysis.RecoveryChannelsBuilder, r *StudyReport) {
			secTotal, secRecycled := secondaryCountsDir(in.Dir)
			r.Channels = b.RecoveryChannels(secTotal, secRecycled)
		})
	}},
	{Name: "remission", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewRemissionBuilder, func(b *analysis.RemissionBuilder, r *StudyReport) {
			r.Remission = b.Remission()
		})
	}},

	// ---- 2014 era ----
	{Name: "table-2", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewPhishSampleBuilder, func(b *analysis.PhishSampleBuilder, r *StudyReport) {
			r.Table2 = b.Table2(100)
		})
	}},
	{Name: "url-share", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewPhishSampleBuilder, func(b *analysis.PhishSampleBuilder, r *StudyReport) {
			r.URLShare = b.URLShare(100)
		})
	}},
	{Name: "figure-11", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(analysis.NewFigure11Builder, func(b *analysis.Figure11Builder, r *StudyReport) {
			r.Fig11 = b.Figure11(in.Plan, 3000)
		})
	}},

	// ---- base rates ----
	{Name: "base-rates", Era: EraBase, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return mergeable(func() *analysis.BaseRatesBuilder {
			return analysis.NewBaseRatesBuilder(in.Start)
		}, func(b *analysis.BaseRatesBuilder, r *StudyReport) {
			active := 0
			in.Dir.All(func(a *identity.Account) {
				if a.Active(in.End) {
					active++
				}
			})
			r.BaseRates = b.BaseRates(in.Start, in.End, active)
		})
	}},
}

// Registry returns the full analysis registry in report order. Callers
// must not mutate the entries.
func Registry() []Analysis {
	return append([]Analysis(nil), registry...)
}

// worldInput packages a finished world for the registry.
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

// RunAnalyses fans every applicable registry analysis out over a worker
// pool against one input (typically a dumped log reloaded by cmd/analyze)
// and returns the report plus the names of analyses skipped because they
// need the live directory. par follows StudyConfig.Parallelism semantics:
// 0 means GOMAXPROCS, 1 runs sequentially. The result is deterministic at
// any parallelism — every analysis writes a distinct report field.
func RunAnalyses(in AnalysisInput, par int) (*StudyReport, []string) {
	if in.Scale <= 0 {
		in.Scale = 1
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	r := &StudyReport{}
	jobs, skipped := analysisJobs(func(Era) AnalysisInput { return in }, r, par)
	runAll(par, jobs)
	return r, skipped
}

// analysisJobs builds the parallel job list for the whole registry, given
// the input each era's analyses read. On monolithic (in-RAM) logs every
// entry is its own job, preserving the wide fan-out. On a segmented log
// the entries of each store are grouped into a single map-reduce job: one
// ordered scan decodes every segment exactly once and feeds all builders,
// which then finalize into their report fields — the pass count stops
// scaling with the analysis count. par bounds the per-segment shard folds
// inside each group (see runGroup). Entries whose directory requirement is
// unmet are returned in skipped.
func analysisJobs(input func(Era) AnalysisInput, r *StudyReport, par int) (jobs []func(), skipped []string) {
	type group struct {
		in      AnalysisInput
		entries []Analysis
	}
	var groups []*group
	byStore := map[*logstore.Store]*group{}
	for _, a := range registry {
		a := a
		in := input(a.Era)
		if a.NeedsDir && in.Dir == nil {
			skipped = append(skipped, a.Name)
			continue
		}
		if in.Log.Segmented() {
			g := byStore[in.Log]
			if g == nil {
				g = &group{in: in}
				byStore[in.Log] = g
				groups = append(groups, g)
			}
			g.entries = append(g.entries, a)
			continue
		}
		jobs = append(jobs, func() { runOne(a, in, r) })
	}
	for _, g := range groups {
		g := g
		jobs = append(jobs, func() { runGroup(g.in, g.entries, r, par) })
	}
	return jobs, skipped
}

// runGroup executes one segmented store's entries in a single
// decode pass. The scan goroutine folds the order-sensitive builders
// inline, preserving strict log order; for every decoded segment, up to
// par worker goroutines fold one fresh shard per mergeable entry, and a
// single merger goroutine folds finished shards back into the root
// builders strictly in segment order. Because each builder's Merge
// contract reproduces the sequential state exactly, the report stays
// byte-identical to a monolithic run at any worker count.
func runGroup(in AnalysisInput, entries []Analysis, r *StudyReport, par int) {
	builders := make([]StreamAnalysis, len(entries))
	var ordered []StreamAnalysis
	var roots []MergeableAnalysis
	for i, a := range entries {
		b := a.Stream(in)
		builders[i] = b
		if m, ok := b.(MergeableAnalysis); ok {
			roots = append(roots, m)
		} else {
			ordered = append(ordered, b)
		}
	}
	if par < 1 {
		par = 1
	}

	// segShards carries one segment's shard set from its fold worker to
	// the merger; done is closed once the shards are fully folded. Entries
	// are enqueued in segment order before the worker spawns, so the
	// merger's receive order IS segment order, and the queue's capacity
	// bounds how many decoded segments the shard stage can hold live.
	type segShards struct {
		shards []MergeableAnalysis
		done   chan struct{}
	}
	queue := make(chan *segShards, par+1)
	var mergeWG sync.WaitGroup
	mergeWG.Add(1)
	go func() {
		defer mergeWG.Done()
		for ss := range queue {
			<-ss.done
			for j, sh := range ss.shards {
				roots[j].Merge(sh)
			}
		}
	}()

	sem := make(chan struct{}, par)
	in.Log.ScanSegments(func(_ int, events []event.Event) {
		for _, e := range events {
			for _, b := range ordered {
				b.Observe(e)
			}
		}
		if len(roots) == 0 {
			return
		}
		ss := &segShards{done: make(chan struct{})}
		queue <- ss
		sem <- struct{}{}
		go func() {
			defer close(ss.done)
			shards := make([]MergeableAnalysis, len(roots))
			for j := range roots {
				shards[j] = roots[j].NewShard()
			}
			for _, e := range events {
				for _, sh := range shards {
					sh.Observe(e)
				}
			}
			ss.shards = shards
			<-sem
		}()
	})
	close(queue)
	mergeWG.Wait()

	for _, b := range builders {
		b.Finalize(r)
	}
}

// runOne executes one entry by scanning the whole log through its builder.
func runOne(a Analysis, in AnalysisInput, r *StudyReport) {
	b := a.Stream(in)
	in.Log.Scan(b.Observe)
	b.Finalize(r)
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
