package core

import (
	"bytes"
	"reflect"
	"testing"

	"manualhijack/internal/analysis"
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
// (population state never reaches the event log) are exempt.
func TestOfflineRegistryParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity test runs a world")
	}
	sc := StudyConfig{Seed: 17, Scale: 0.04, DecoyN: 60}
	w := sc.world2012()

	live, skippedLive := RunAnalyses(worldInput(w, sc.Scale), 0)
	if len(skippedLive) != 0 {
		t.Fatalf("live run skipped %v", skippedLive)
	}

	var buf bytes.Buffer
	meta := logstore.Meta{Start: w.Cfg.Start, End: w.End(), Seed: sc.Seed}
	if err := logstore.WriteNDJSONMeta(&buf, w.Log, meta); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := logstore.ReadNDJSONWith(&buf, logstore.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Sealed() || st.Records != w.Log.Len() {
		t.Fatalf("reload: sealed=%v records=%d want %d", loaded.Sealed(), st.Records, w.Log.Len())
	}

	offline, skipped := RunAnalyses(AnalysisInput{
		Log:   loaded,
		Start: st.Meta.Start,
		End:   st.Meta.End,
		Plan:  DefaultIPPlan(),
	}, 0)
	wantSkipped := []string{"contact-risk", "doppelganger", "recovery-channels", "base-rates"}
	if !reflect.DeepEqual(skipped, wantSkipped) {
		t.Fatalf("offline skipped %v, want %v", skipped, wantSkipped)
	}

	// The live report's directory-backed fields have no offline
	// counterpart; blank them before the exact comparison.
	live.ContactRisk = analysis.ContactRisk{}
	live.Doppelganger = analysis.DoppelgangerEval{}
	live.Channels = analysis.RecoveryChannels{}
	live.BaseRates = analysis.BaseRates{}

	if !reflect.DeepEqual(live, offline) {
		lv, ov := reflect.ValueOf(*live), reflect.ValueOf(*offline)
		for i := 0; i < lv.NumField(); i++ {
			if !reflect.DeepEqual(lv.Field(i).Interface(), ov.Field(i).Interface()) {
				t.Errorf("field %s diverges offline:\nlive:    %+v\noffline: %+v",
					lv.Type().Field(i).Name, lv.Field(i).Interface(), ov.Field(i).Interface())
			}
		}
		t.Fatal("offline registry run does not match in-process analyses")
	}
}
