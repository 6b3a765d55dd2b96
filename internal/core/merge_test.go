package core

import (
	"reflect"
	"testing"

	"manualhijack/internal/event"
)

// TestMergeableMatchesSequential is the unit-level half of the segmented
// parity guarantee: for every registry builder that implements
// MergeableAnalysis, folding the log as per-partition shards merged in
// order must produce exactly the report a single sequential fold produces
// — DeepEqual, field for field. The partition layout is deliberately
// ragged (a 1-record chunk, an empty chunk, uneven tails) to poke the
// dedup-replay and map-union paths. It also pins the capability
// inventory, so converting or unconverting an entry is a visible choice.
func TestMergeableMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("parity test runs a world")
	}
	for _, seed := range []int64{1, 2} {
		sc := StudyConfig{Seed: seed, Scale: 0.04, DecoyN: 60,
			// Tagged archetype traffic in the stream keeps the scorecard
			// builder's merge parity non-vacuous.
			Archetypes: []ArchetypeSpec{
				{Archetype: "smashgrab", Count: 1},
				{Archetype: "stuffer", Count: 1},
			},
		}
		w := sc.world2012()
		w.Run()
		in := worldInput(w, sc.Scale)

		var events []event.Event
		in.Log.Scan(func(e event.Event) { events = append(events, e) })
		n := len(events)
		if n < 100 {
			t.Fatalf("seed %d: world produced only %d events", seed, n)
		}
		cuts := []int{0, 1, n / 7, n / 3, n / 3, n / 2, 2 * n / 3, n - 1, n}

		mergeableN, orderedN := 0, 0
		for _, a := range Registry() {
			// Every builder sees the same 2012 event stream regardless of
			// its era: the Merge contract is a property of the builder, not
			// of which world feeds it.
			seq := a.Stream(in)
			if _, ok := seq.(MergeableAnalysis); !ok {
				orderedN++
				continue
			}
			mergeableN++

			seqR := &StudyReport{}
			for _, e := range events {
				seq.Observe(e)
			}
			seq.Finalize(seqR)

			merged := a.Stream(in).(MergeableAnalysis)
			for i := 1; i < len(cuts); i++ {
				shard := merged.NewShard()
				for _, e := range events[cuts[i-1]:cuts[i]] {
					shard.Observe(e)
				}
				merged.Merge(shard)
			}
			mergedR := &StudyReport{}
			merged.Finalize(mergedR)

			if !reflect.DeepEqual(seqR, mergedR) {
				t.Errorf("seed %d: %s: sharded fold diverged from sequential", seed, a.Name)
			}
		}
		if mergeableN != 22 || orderedN != 6 {
			t.Fatalf("capability inventory moved: %d mergeable + %d ordered (want 22 + 6) — update the docs and this pin together",
				mergeableN, orderedN)
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
