package stream_test

import (
	"reflect"
	"testing"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/playbook"
	"manualhijack/internal/stream"
)

// TestStreamingMatchesBatch is the parity gate between the incremental
// streaming analyses and the batch registry: the same world is analyzed
// three ways — the batch registry over the sealed log, a bus tapped live
// into the simulation as it runs, and a bus replaying the sealed store —
// and all three must agree exactly (reflect.DeepEqual, not tolerance).
// Any drift between the online and offline pipelines fails here before it
// can ship.
//
// Two worlds are covered: the seed-7 dump-equivalent world the CI smoke
// replays (the hijacksim configuration that produces the 12k-login dump),
// and a reduced-scale 2014-era world, so parity is not an artifact of one
// seed, one roster, or one scale.
func TestStreamingMatchesBatch(t *testing.T) {
	t.Run("seed7-dump-world", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full seed-7 world is slow; run without -short")
		}
		cfg := core.DefaultConfig(7)
		cfg.PopulationN = 2000
		cfg.Days = 10
		cfg.DecoyN = 40
		assertParity(t, cfg, time.Duration(cfg.Days)*16*time.Hour)
	})

	t.Run("reduced-2014-world", func(t *testing.T) {
		cfg := core.DefaultConfig(11)
		cfg.PopulationN = 400
		cfg.Days = 5
		cfg.DecoyN = 10
		cfg.Crews = core.Roster2014()
		assertParity(t, cfg, time.Duration(cfg.Days)*16*time.Hour)
	})

	// A mixed-archetype world exercises the scorecard rows: every playbook
	// fielded at once (one instance of each registered archetype, so the
	// roster cannot drift from the registry), and the streaming scorecard
	// must agree with batch on a log containing every archetype tag.
	t.Run("mixed-archetype-world", func(t *testing.T) {
		cfg := core.DefaultConfig(23)
		cfg.PopulationN = 600
		cfg.Days = 12
		cfg.DecoyN = 10
		for _, name := range playbook.Names() {
			cfg.Archetypes = append(cfg.Archetypes, core.ArchetypeSpec{Archetype: name, Count: 1})
		}
		assertParity(t, cfg, time.Duration(cfg.Days)*16*time.Hour)
	})
}

// assertParity builds a world from cfg, feeds one bus live off the
// simulation's log tap while it runs, runs the batch registry over the
// sealed store, replays the store through a second bus, and requires all
// three resulting reports to be identical field-for-field.
func assertParity(t *testing.T, cfg core.Config, decoyOver time.Duration) {
	t.Helper()
	w := core.NewWorld(cfg)
	live := stream.NewBus(stream.DefaultSuite(w.Plan)...)
	w.Tap(func(e event.Event) { live.Publish(e) })
	if cfg.DecoyN > 0 {
		w.InjectDecoys(decoyOver)
	}
	w.Run()

	r, _ := core.RunAnalyses(core.AnalysisInput{
		Log:   w.Log,
		Start: cfg.Start,
		End:   w.End(),
		Plan:  w.Plan,
		Dir:   w.Dir,
	}, 0)
	batch := stream.FromStudy(r)

	liveSnap := live.Snapshot()
	if liveSnap.EventsObserved == 0 {
		t.Fatal("live tap observed no events — tap not wired into the world")
	}
	if liveSnap.EventsDropped != 0 {
		t.Fatalf("live tap dropped %d events; the simulation log is time-ordered, nothing should drop",
			liveSnap.EventsDropped)
	}
	if diffs := stream.AnalysisDiff(liveSnap, batch); len(diffs) > 0 {
		t.Errorf("live-tap streaming diverges from batch in: %v", diffs)
		logFirstDiff(t, liveSnap, batch)
	}

	replay := stream.NewBus(stream.DefaultSuite(w.Plan)...)
	n := replay.Replay(w.Log)
	if int64(n) != liveSnap.EventsObserved {
		t.Errorf("replay accepted %d events, live tap observed %d", n, liveSnap.EventsObserved)
	}
	replaySnap := replay.Snapshot()
	if diffs := stream.AnalysisDiff(replaySnap, batch); len(diffs) > 0 {
		t.Errorf("sealed-replay streaming diverges from batch in: %v", diffs)
		logFirstDiff(t, replaySnap, batch)
	}
	if !reflect.DeepEqual(liveSnap, replaySnap) {
		t.Error("live-tap and sealed-replay snapshots differ from each other")
	}
}

// logFirstDiff dumps the mismatching analysis structs so a parity failure
// is diagnosable from the test log alone.
func logFirstDiff(t *testing.T, got, want stream.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Lifecycle, want.Lifecycle) {
		t.Logf("lifecycle:\n  stream: %+v\n  batch:  %+v", got.Lifecycle, want.Lifecycle)
	}
	if !reflect.DeepEqual(got.Fig6, want.Fig6) {
		t.Logf("figure-6:\n  stream: %+v\n  batch:  %+v", got.Fig6, want.Fig6)
	}
	if !reflect.DeepEqual(got.Fig8, want.Fig8) {
		t.Logf("figure-8:\n  stream: %+v\n  batch:  %+v", got.Fig8, want.Fig8)
	}
	if !reflect.DeepEqual(got.Fig11, want.Fig11) {
		t.Logf("figure-11:\n  stream: %+v\n  batch:  %+v", got.Fig11, want.Fig11)
	}
	if !reflect.DeepEqual(got.Scorecard, want.Scorecard) {
		t.Logf("archetype-scorecard:\n  stream: %+v\n  batch:  %+v", got.Scorecard, want.Scorecard)
	}
}
