package core

import (
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/recovery"
)

// StudyConfig controls the full measurement campaign.
type StudyConfig struct {
	Seed int64
	// Scale shrinks (or, above 1, grows) populations and phishing volume;
	// 1.0 is the full study. Values above 1 exist for spill stress
	// benchmarks — the report still computes, but its published-value
	// comparisons are calibrated to scale <= 1.
	Scale float64
	// DecoyN is the number of decoy accounts the 2012 world submits to
	// phishing pages (Figure 7), scaled by Scale with a floor of 40.
	DecoyN int
	// Parallelism bounds the worker pool that runs the era jobs, each of
	// which simulates one world and folds its analyses: 0 means
	// GOMAXPROCS, 1 runs the eras one after another. At most Parallelism
	// worlds are alive at once. Every setting produces a byte-identical
	// StudyReport for the same Seed — each world owns an independent seed
	// and log, and each analysis writes its own report field.
	Parallelism int
	// SpillDir, when set, runs every era world with a spill-to-disk
	// segmented log (one subdirectory per era). The study itself folds
	// every record as it is appended and reads none of the segments: they
	// are the dump `analyze -events <SpillDir>/<era>` re-reads. Without
	// SpillDir the era worlds keep no log at all (logstore.Store.Discard),
	// so the dump is the only thing spilling adds. The report is
	// byte-identical to a run without SpillDir of the same Seed.
	SpillDir string
	// SegmentRecords caps records per segment (0 = logstore default).
	// SpillGzip compresses segment files.
	SegmentRecords int
	SpillGzip      bool
	// SpillWriters bounds each world's segment writes in flight
	// (logstore.SpillConfig.Writers; 0 means 1). It does not affect
	// report bytes — only how much of the spill tax overlaps the
	// simulation.
	SpillWriters int
	// ScanWorkers is ignored: RunStudy reads none of its logs, so it has
	// no scan to size.
	ScanWorkers int
	// Archetypes fields playbook actors in every era world, next to each
	// era's manual-crew roster (counts are not scaled — archetype
	// instances are actors, not population).
	Archetypes []ArchetypeSpec
}

// spillFor derives one era world's spill configuration, or the zero value
// (spilling off) when the study is monolithic.
func (sc StudyConfig) spillFor(era string) logstore.SpillConfig {
	if sc.SpillDir == "" {
		return logstore.SpillConfig{}
	}
	return logstore.SpillConfig{
		Dir:            filepath.Join(sc.SpillDir, era),
		SegmentRecords: sc.SegmentRecords,
		Compress:       sc.SpillGzip,
		Writers:        sc.SpillWriters,
	}
}

// DefaultStudyConfig is the full-scale study.
func DefaultStudyConfig(seed int64) StudyConfig {
	return StudyConfig{Seed: seed, Scale: 1.0, DecoyN: 200}
}

// StudyReport holds every reproduced table and figure, plus the era
// retention comparison and the defense evaluations.
type StudyReport struct {
	// §4 — attack vectors.
	Table2   analysis.Table2
	URLShare float64
	Fig3     analysis.Figure3
	Fig4     analysis.Figure4
	Fig5     analysis.Figure5
	Fig6     analysis.Figure6

	// §5 — exploitation.
	Fig7          analysis.Figure7
	Fig8          analysis.Figure8
	Table3        analysis.Table3
	Assessment    analysis.Assessment
	Exploitation  analysis.Exploitation
	ContactRisk   analysis.ContactRisk
	Retention2011 analysis.Retention
	Retention2012 analysis.Retention

	// §6 — remediation.
	Fig9      analysis.Figure9
	Fig10     analysis.Figure10
	Channels  analysis.RecoveryChannels
	Remission analysis.RemissionStats

	// §7 — attribution.
	Fig11 analysis.Figure11
	Fig12 analysis.Figure12

	// §3 / §8 — base rates and defense evaluation.
	BaseRates analysis.BaseRates
	Behavior  analysis.DetectionEval
	RiskSweep []analysis.RiskOperatingPoint
	// ArchetypeScorecard is the per-archetype detection scorecard (2012
	// world): recall, time-to-detect, and the owner-side FP cost. Empty
	// rows when no archetypes are fielded.
	ArchetypeScorecard analysis.ArchetypeScorecard

	// §5.5 — the "ordinary office job" evidence, and the doppelganger
	// review defense of §5.4.
	Schedule     analysis.WorkSchedule
	Doppelganger analysis.DoppelgangerEval

	// The scam funnel: pleas → replies → reached crew → wires.
	Monetization analysis.Monetization

	// Figure 2's overall hijacking cycle, as a survival funnel.
	Lifecycle analysis.Lifecycle

	// Worlds' raw sizes, for the report header.
	Events2011, Events2012, Events2013, Events2014 int
}

// scaleInt scales a count, keeping at least min. Rounding (not truncating)
// keeps float representation error from dropping a unit: 3000×0.3 is
// 899.9999…, which truncation would turn into 899 and quietly
// under-populate an era.
func scaleInt(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// era builds a world config for one observation window.
func (sc StudyConfig) era(start time.Time, days, pop int, crews []CrewSpec, campaignsPerDay float64, lureBase int) Config {
	cfg := DefaultConfig(sc.Seed + int64(start.Year()*100+int(start.Month())))
	cfg.Start = start
	cfg.Days = days
	cfg.PopulationN = scaleInt(pop, sc.Scale, 500)
	cfg.Crews = crews
	cfg.CampaignsPerDay = campaignsPerDay * sc.Scale
	cfg.LureBase = lureBase
	cfg.Archetypes = sc.Archetypes
	return cfg
}

// world2011 assembles October–December 2011: the retention-tactic
// baseline and the Dataset 9 contact-risk experiment (cohorts formed after
// 15 days, outcomes over the following 60). Like the other era worlds, it
// is returned ready to Run.
func (sc StudyConfig) world2011() *World {
	cfg := sc.era(
		time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC), 75, 20000,
		Roster2011(), 12, 350)
	cfg.Recovery = recovery.Config2011()
	cfg.CampaignDays = 15 // background phishing only while cohorts form
	cfg.Spill = sc.spillFor("2011")
	return NewWorld(cfg)
}

// world2012 assembles November 2012: the era most datasets come from
// (4–8, 11), plus the decoy experiment and the Forms-page HTTP analyses.
func (sc StudyConfig) world2012() *World {
	cfg := sc.era(
		time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC), 30, 12000,
		Roster2012(), 30, 420)
	cfg.DecoyN = scaleInt(sc.DecoyN, sc.Scale, 40)
	cfg.Spill = sc.spillFor("2012")
	w := NewWorld(cfg)
	w.InjectDecoys(20 * 24 * time.Hour)
	return w
}

// world2013 assembles February 2013: a month of recovery claims
// (Dataset 12, Figure 10).
func (sc StudyConfig) world2013() *World {
	cfg := sc.era(
		time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC), 28, 8000,
		Roster2012(), 22, 420)
	cfg.Spill = sc.spillFor("2013")
	return NewWorld(cfg)
}

// world2014 assembles January 2014: attribution (Dataset 13) and the
// curated phishing email/page review (Datasets 1–2, Table 2).
func (sc StudyConfig) world2014() *World {
	cfg := sc.era(
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), 30, 10000,
		Roster2014(), 25, 420)
	// No outlier campaigns here: their 6× lure volume makes the Table 2
	// email sample lumpy, and Figure 6 is computed from the 2012 world.
	cfg.OutlierShare = 0
	cfg.Spill = sc.spillFor("2014")
	return NewWorld(cfg)
}

// worldBase assembles the separate low-intensity world calibrated to the
// paper's ~9 hijacks per million active users per day — the era worlds
// run at boosted phishing intensity for statistical power (documented in
// EXPERIMENTS.md).
func (sc StudyConfig) worldBase() *World {
	cfg := sc.era(
		time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC), 30, 20000,
		Roster2012(), 0.9, 100)
	cfg.Spill = sc.spillFor("base")
	return NewWorld(cfg)
}

// runAll executes jobs on at most par workers. par <= 1 runs them
// sequentially in order (the legacy engine). Jobs must write to disjoint
// state; the pool provides only the completion barrier.
func runAll(par int, jobs []func()) {
	if par <= 1 || len(jobs) < 2 {
		for _, job := range jobs {
			job()
		}
		return
	}
	if par > len(jobs) {
		par = len(jobs)
	}
	next := make(chan func())
	var wg sync.WaitGroup
	wg.Add(par)
	for i := 0; i < par; i++ {
		go func() {
			defer wg.Done()
			for job := range next {
				job()
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
}

// RunStudy executes the five observation-window worlds and computes every
// artifact from the era-appropriate world, mirroring how the paper's
// datasets were drawn from different time windows of Google's logs
// (Table 1).
//
// Each era is one job on a pool of StudyConfig.Parallelism workers, the
// longest world (2011) first. A job assembles its world, taps the
// builders of its era's registry entries into the world's log, runs the
// world, finalizes the builders into the report and drops the world:
// every record is folded once, as it is appended, and no log is read
// back. So without SpillDir the job makes its world's log write-only
// (logstore.Store.Discard), which keeps only the record count the report
// header prints; with SpillDir the log spills its segments for analyze.
// Each world owns an independent seed, clock and log, and every analysis
// writes a distinct StudyReport field, so the report is byte-identical
// for a fixed Seed whatever the parallelism.
func RunStudy(sc StudyConfig) *StudyReport {
	if sc.Scale <= 0 {
		sc.Scale = 1
	}
	par := sc.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	r := &StudyReport{}

	var entries [eraCount][]Analysis
	for _, a := range registry {
		entries[a.Era] = append(entries[a.Era], a)
	}
	eras := []struct {
		era    Era
		world  func() *World
		events *int
	}{
		{Era2011, sc.world2011, &r.Events2011},
		{Era2012, sc.world2012, &r.Events2012},
		{Era2013, sc.world2013, &r.Events2013},
		{Era2014, sc.world2014, &r.Events2014},
		{EraBase, sc.worldBase, nil},
	}
	jobs := make([]func(), len(eras))
	for i, e := range eras {
		jobs[i] = func() {
			w := e.world()
			if sc.SpillDir == "" {
				// Only the era's record count is read back.
				w.Log.Discard()
			}
			finalize := foldAtAppend(w, sc.Scale, entries[e.era])
			w.Run()
			finalize(r)
			if e.events != nil {
				*e.events = w.Log.Len()
			}
		}
	}
	runAll(par, jobs)
	return r
}

// foldAtAppend builds the builders of entries against w and taps w's log
// so that every builder observes each record as it is appended, in log
// order. Call it before w.Run; once w has run, the returned function
// finalizes the builders into their report fields.
func foldAtAppend(w *World, scale float64, entries []Analysis) (finalize func(*StudyReport)) {
	in := worldInput(w, scale)
	builders := make([]StreamAnalysis, len(entries))
	for i, a := range entries {
		builders[i] = a.Stream(in)
	}
	w.Tap(func(e event.Event) {
		for _, b := range builders {
			b.Observe(e)
		}
	})
	return func(r *StudyReport) {
		for _, b := range builders {
			b.Finalize(r)
		}
	}
}
