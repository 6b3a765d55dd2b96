package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"manualhijack/internal/logstore"
)

// TestSegmentedMatchesMonolithic is the tentpole regression gate: a study
// run with every era world spilling to disk segments must produce a
// byte-identical StudyReport to the monolithic in-RAM run of the same
// seed, and the segments it wrote must give the study's report back when
// analyzed (assertSegmentsMatchStudy). The segment threshold is set low
// enough that every era world spills multiple segments, so the map-reduce
// analysis path (one ordered scan feeding every builder) is exercised for
// real.
func TestSegmentedMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-study comparison; skipped in -short")
	}
	for _, seed := range []int64{1, 2} {
		sc := StudyConfig{Seed: seed, Scale: 0.1, DecoyN: 200,
			// Archetype actors ride in every era world so the segmented
			// scan covers tagged events and the scorecard's Merge path.
			Archetypes: []ArchetypeSpec{
				{Archetype: "smashgrab", Count: 1},
				{Archetype: "stuffer", Count: 1},
				{Archetype: "hopper", Count: 1},
			},
		}
		mono := RunStudy(sc)

		sc.SpillDir = t.TempDir()
		sc.SegmentRecords = 50_000
		seg := RunStudy(sc)

		if !reflect.DeepEqual(mono, seg) {
			diffReportFields(t, mono, seg)
			t.Fatalf("seed %d: segmented study diverged from monolithic", seed)
		}
		assertSegmentsMatchStudy(t, sc, seg)
	}
}

// TestSegmentedMatchesMonolithicGzip covers the compressed segment path
// at a smaller scale: the decode side must be byte-transparent.
func TestSegmentedMatchesMonolithicGzip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-study comparison; skipped in -short")
	}
	sc := StudyConfig{Seed: 7, Scale: 0.04, DecoyN: 200}
	mono := RunStudy(sc)

	sc.SpillDir = t.TempDir()
	sc.SegmentRecords = 20_000
	sc.SpillGzip = true
	seg := RunStudy(sc)

	if !reflect.DeepEqual(mono, seg) {
		diffReportFields(t, mono, seg)
		t.Fatalf("gzip segmented study diverged from monolithic")
	}
	assertSegmentsMatchStudy(t, sc, seg)
}

// assertSegmentsMatchStudy checks the segments a spilled study wrote
// against the study's report. The study folds its records as they are
// appended and never reads the segments back, so this is the gate that
// what it wrote is what it analyzed: each era directory must open
// strictly, hold the records the report counts, and, folded by the
// map-reduce runner cmd/analyze uses, rewrite the era's directory-free
// report fields to exactly the study's values.
func assertSegmentsMatchStudy(t *testing.T, sc StudyConfig, r *StudyReport) {
	t.Helper()
	events := map[Era]int{
		Era2011: r.Events2011, Era2012: r.Events2012,
		Era2013: r.Events2013, Era2014: r.Events2014,
	}
	for e := Era2011; e < eraCount; e++ {
		log, st, err := logstore.OpenSegmentDir(filepath.Join(sc.SpillDir, e.String()),
			logstore.ReadOptions{ScanWorkers: 2})
		if err != nil {
			t.Fatalf("seed %d era %s: %v", sc.Seed, e, err)
		}
		if want, ok := events[e]; ok && log.Len() != want {
			t.Fatalf("seed %d era %s: segments hold %d records, the report counts %d",
				sc.Seed, e, log.Len(), want)
		}
		var entries []Analysis
		for _, a := range registry {
			if a.Era == e && !a.NeedsDir {
				entries = append(entries, a)
			}
		}
		got := *r
		runGroup(AnalysisInput{
			Log:   log,
			Start: st.Meta.Start,
			End:   st.Meta.End,
			Plan:  DefaultIPPlan(),
			Scale: sc.Scale,
		}, entries, &got, 2)
		if !reflect.DeepEqual(&got, r) {
			diffReportFields(t, r, &got)
			t.Fatalf("seed %d era %s: analysis over the written segments diverged from the study",
				sc.Seed, e)
		}
	}
}

// diffReportFields names which StudyReport fields diverged, so a parity
// break points straight at the offending analysis.
func diffReportFields(t *testing.T, a, b *StudyReport) {
	t.Helper()
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			t.Errorf("field %s diverged", typ.Field(i).Name)
		}
	}
}

// spillHeapWorld builds and runs one mid-sized world, optionally
// spilling, then drops everything but the sealed log and reports the
// live heap retained by the store alone — the world's directory and
// mailboxes are identical on both sides and would only dilute the ratio.
func spillHeapWorld(t *testing.T, spill logstore.SpillConfig) (*logstore.Store, uint64) {
	t.Helper()
	cfg := DefaultConfig(11)
	cfg.PopulationN = 4000
	cfg.Days = 30
	cfg.Spill = spill
	w := NewWorld(cfg)
	w.Run()
	log := w.Log
	w = nil //nolint:wastedassign // release the world before measuring
	return log, liveHeap()
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSpillBoundsLiveHeap is the Reserve/expectedEvents interplay check:
// with spilling on, the store reserves only one segment's capacity and
// sealed segments leave RAM, so the world retains far less heap than the
// monolithic build of the same config. The margin is deliberately
// generous — the world's non-log state (directory, mailboxes) is
// identical on both sides, so the delta is almost entirely the log.
func TestSpillBoundsLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement; skipped in -short")
	}
	base := liveHeap()
	mono, monoLive := spillHeapWorld(t, logstore.SpillConfig{})
	if mono.Len() < 100_000 {
		t.Fatalf("world too small for a meaningful heap bound: %d events", mono.Len())
	}
	events := mono.Len()
	monoRetained := monoLive - base
	runtime.KeepAlive(mono)
	mono = nil //nolint:wastedassign // release before re-measuring

	base2 := liveHeap()
	seg, segLive := spillHeapWorld(t, logstore.SpillConfig{
		Dir:            filepath.Join(t.TempDir(), "segs"),
		SegmentRecords: events / 6,
	})
	segRetained := segLive - base2
	if got := seg.SegmentCount(); got < 4 {
		t.Fatalf("expected >= 4 spilled segments, got %d", got)
	}
	if seg.Len() != events {
		t.Fatalf("segmented world produced %d events, monolithic %d", seg.Len(), events)
	}
	runtime.KeepAlive(seg)

	// The segmented store retains at most the 2-segment cache out of 6+
	// segments; 0.6 leaves room for the manifest, cache, and GC noise
	// (measured ~0.25x on Linux/go1.24).
	if float64(segRetained) > 0.6*float64(monoRetained) {
		t.Fatalf("segmented store retains %d bytes, monolithic %d (want < 0.6x)",
			segRetained, monoRetained)
	}
	t.Logf("retained heap: monolithic=%d segmented=%d (%.2fx) over %d events",
		monoRetained, segRetained, float64(segRetained)/float64(monoRetained), events)
}

// TestWorldSpillIncompatibleWithRetention pins the documented panic:
// sanitization rewrites history, spilled segments are immutable.
func TestWorldSpillIncompatibleWithRetention(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.PopulationN = 500
	cfg.Days = 2
	cfg.AuthLogRetentionDays = 7
	cfg.Spill = logstore.SpillConfig{Dir: t.TempDir(), SegmentRecords: 1000}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic combining Spill with AuthLogRetentionDays")
		}
	}()
	NewWorld(cfg)
}

// TestWorldSpillMetaDefault checks the manifest inherits the world's
// window and seed when the caller leaves Meta zero.
func TestWorldSpillMetaDefault(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(5)
	cfg.PopulationN = 500
	cfg.Days = 3
	cfg.Spill = logstore.SpillConfig{Dir: dir, SegmentRecords: 2000}
	w := NewWorld(cfg)
	w.Run()
	if w.Log.SegmentCount() < 2 {
		t.Fatalf("expected >= 2 segments, got %d", w.Log.SegmentCount())
	}

	re, st, err := logstore.OpenSegmentDir(dir, logstore.ReadOptions{})
	if err != nil {
		t.Fatalf("OpenSegmentDir: %v", err)
	}
	meta := st.Meta
	if !meta.Start.Equal(cfg.Start) || meta.Seed != cfg.Seed {
		t.Fatalf("manifest meta = %+v, want start %v seed %d", meta, cfg.Start, cfg.Seed)
	}
	wantEnd := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	if !meta.End.Equal(wantEnd) {
		t.Fatalf("manifest end = %v, want %v", meta.End, wantEnd)
	}
	if re.Len() != w.Log.Len() {
		t.Fatalf("reloaded %d events, world logged %d", re.Len(), w.Log.Len())
	}
}
