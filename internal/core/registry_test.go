package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"manualhijack/internal/analysis"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
)

// Every registry entry must write a distinct report field with a unique
// name and a valid era — the invariants the deterministic fan-out and the
// offline tool both rely on.
func TestRegistryWellFormed(t *testing.T) {
	reg := Registry()
	if len(reg) != 28 {
		t.Fatalf("registry has %d analyses, want 28 — keep RunStudy and cmd/analyze in sync", len(reg))
	}
	names := map[string]bool{}
	for _, a := range reg {
		if a.Name == "" || names[a.Name] {
			t.Fatalf("registry entry %q missing or duplicate name", a.Name)
		}
		names[a.Name] = true
		if a.Era < Era2011 || a.Era >= eraCount {
			t.Fatalf("%s: bad era %d", a.Name, a.Era)
		}
		if a.Stream == nil {
			t.Fatalf("%s: no Stream builder", a.Name)
		}
	}
}

// The offline pipeline's core guarantee: running the registry over a
// dumped-and-reloaded log yields exactly the StudyReport fields the
// in-process run computes from the live world. Only the NeedsDir analyses
// (population state never reaches the event log) are exempt. The dump is
// analyzed in both layouts RunAnalyses folds, at several pool sizes: in
// RAM, as one storage unit, and re-segmented into at least five segments
// whose last is short, so builders carry their state across unit
// boundaries.
func TestOfflineRegistryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity test runs a world")
	}
	sc := StudyConfig{Seed: 17, Scale: 0.04, DecoyN: 60}
	w := sc.world2012()
	w.Run()

	live, skippedLive := RunAnalyses(worldInput(w, sc.Scale), 0)
	if len(skippedLive) != 0 {
		t.Fatalf("live run skipped %v", skippedLive)
	}
	// The live report's directory-backed fields have no offline
	// counterpart; blank them before the exact comparison.
	live.ContactRisk = analysis.ContactRisk{}
	live.Doppelganger = analysis.DoppelgangerEval{}
	live.Channels = analysis.RecoveryChannels{}
	live.BaseRates = analysis.BaseRates{}

	dump := filepath.Join(t.TempDir(), "w.ndjson")
	meta := logstore.Meta{Start: w.Cfg.Start, End: w.End(), Seed: sc.Seed}
	if err := logstore.WriteNDJSONFile(dump, w.Log, meta); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := logstore.ReadNDJSONFile(dump, logstore.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := w.Log.Len()
	if !loaded.Sealed() || st.Records != n {
		t.Fatalf("reload: sealed=%v records=%d want %d", loaded.Sealed(), st.Records, n)
	}
	segs, _, err := logstore.ResegmentNDJSONFile(dump, logstore.SpillConfig{
		Dir:            filepath.Join(t.TempDir(), "segs"),
		SegmentRecords: (n - 1) / 5, // six segments, the last of 1–5 records
	}, logstore.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var units []int
	segs.ScanSegments(func(_ int, events []event.Event) { units = append(units, len(events)) })
	if len(units) < 5 || units[len(units)-1] >= units[0] {
		t.Fatalf("re-segmented layout %v: want at least five segments and a short last one", units)
	}

	wantSkipped := []string{"contact-risk", "doppelganger", "recovery-channels", "base-rates"}
	for _, run := range []struct {
		log *logstore.Store
		par int
	}{
		{loaded, 0}, {loaded, 1}, {loaded, 5},
		{segs, 1}, {segs, 2}, {segs, 5},
	} {
		offline, skipped := RunAnalyses(AnalysisInput{
			Log:   run.log,
			Start: st.Meta.Start,
			End:   st.Meta.End,
			Plan:  DefaultIPPlan(),
		}, run.par)
		if !reflect.DeepEqual(skipped, wantSkipped) {
			t.Fatalf("segmented=%v par %d: offline skipped %v, want %v",
				run.log.Segmented(), run.par, skipped, wantSkipped)
		}
		if !reflect.DeepEqual(live, offline) {
			diffReportFields(t, live, offline)
			t.Fatalf("segmented=%v par %d: offline registry run does not match in-process analyses",
				run.log.Segmented(), run.par)
		}
	}
}

// TestTapFoldMatchesScan pins the study's fold at append: every registry
// entry, fed from World.Tap while its world runs, must finalize exactly
// the report RunAnalyses computes by scanning the sealed log afterwards.
// That holds only if no record changes after Append. It is also the one
// gate that compares the directory-backed entries, which the offline
// paths skip, against a scan.
func TestTapFoldMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		sc := StudyConfig{Seed: seed, Scale: 0.04, DecoyN: 60,
			Archetypes: []ArchetypeSpec{
				{Archetype: "smashgrab", Count: 1},
				{Archetype: "stuffer", Count: 1},
			},
		}
		w := sc.world2012()
		finalize := foldAtAppend(w, sc.Scale, registry)
		w.Run()
		tapped := &StudyReport{}
		finalize(tapped)

		scanned, skipped := RunAnalyses(worldInput(w, sc.Scale), 0)
		if len(skipped) != 0 {
			t.Fatalf("seed %d: scan skipped %v", seed, skipped)
		}
		if !reflect.DeepEqual(tapped, scanned) {
			diffReportFields(t, scanned, tapped)
			t.Fatalf("seed %d: tap-fed builders diverged from a scan of the sealed log", seed)
		}
	}
}
