package core_test

import (
	"bytes"
	"testing"

	"manualhijack/internal/core"
	"manualhijack/internal/geo"
	"manualhijack/internal/report"
)

// studyReport runs one reduced-scale study per test binary and shares it:
// the shape assertions below all read from the same deterministic run.
// TestPaperLedger (internal/report) checks the same seed-7, scale-0.25
// study against the paper ledger, whose rows carry each band below, at
// least as tight; these tests skip under -short, the ledger test does not.
var sharedReport *core.StudyReport

func studyReport(t *testing.T) *core.StudyReport {
	t.Helper()
	if testing.Short() {
		t.Skip("study integration tests are slow")
	}
	if sharedReport == nil {
		sc := core.DefaultStudyConfig(7)
		sc.Scale = 0.25
		sharedReport = core.RunStudy(sc)
	}
	return sharedReport
}

func TestStudyContactRiskShape(t *testing.T) {
	r := studyReport(t)
	cr := r.ContactRisk
	if cr.ContactCohort < 50 || cr.RandomCohort < 200 {
		t.Fatalf("cohorts too small: %d/%d", cr.ContactCohort, cr.RandomCohort)
	}
	// The random-cohort hit count is 0–3 events, so the multiplier's seed
	// variance spans roughly 8×–70× around the paper's 36×.
	if cr.Multiplier < 8 {
		t.Errorf("contact multiplier = %.1f×, want order of paper's 36×", cr.Multiplier)
	}
	if cr.ContactRate <= cr.RandomRate {
		t.Error("contacts not at elevated risk")
	}
}

func TestStudyChannelsShape(t *testing.T) {
	r := studyReport(t)
	if r.Channels.RecycledShare < 0.04 || r.Channels.RecycledShare > 0.10 {
		t.Errorf("recycled = %.3f, want ~0.07", r.Channels.RecycledShare)
	}
}

func TestStudyAttributionShape(t *testing.T) {
	r := studyReport(t)
	// Figure 11: CN and MY must be the top two.
	if len(r.Fig11.Shares) < 3 {
		t.Fatalf("f11 shares = %v", r.Fig11.Shares)
	}
	top2 := map[string]bool{r.Fig11.Shares[0].Key: true, r.Fig11.Shares[1].Key: true}
	if !top2[string(geo.China)] || !top2[string(geo.Malaysia)] {
		t.Errorf("f11 top two = %v, want CN and MY", r.Fig11.Shares[:2])
	}
	// Figure 12: CI and NG dominate; CN/MY absent.
	if r.Fig12.Phones < 5 {
		t.Fatalf("f12 phones = %d, too few", r.Fig12.Phones)
	}
	for _, e := range r.Fig12.Shares {
		if e.Key == string(geo.China) || e.Key == string(geo.Malaysia) {
			t.Errorf("f12 contains %s; those crews didn't use the phone tactic", e.Key)
		}
	}
	top2 = map[string]bool{r.Fig12.Shares[0].Key: true}
	if len(r.Fig12.Shares) > 1 {
		top2[r.Fig12.Shares[1].Key] = true
	}
	if !top2[string(geo.IvoryCoast)] && !top2[string(geo.Nigeria)] {
		t.Errorf("f12 top = %v, want CI/NG", r.Fig12.Shares)
	}
}

func TestStudyBehaviorShape(t *testing.T) {
	r := studyReport(t)
	if r.Behavior.Recall < 0.4 {
		t.Errorf("behavior recall = %.2f, want useful", r.Behavior.Recall)
	}
	if r.Behavior.Precision < 0.8 {
		t.Errorf("behavior precision = %.2f, want high", r.Behavior.Precision)
	}
	if r.Behavior.MeanExposure <= 0 {
		t.Error("behavioral detector must fire after some exposure (§8.2)")
	}
}

func TestRenderStudyOutput(t *testing.T) {
	r := studyReport(t)
	var b bytes.Buffer
	report.RenderStudy(&b, r)
	out := b.String()
	for _, want := range []string{"Table 2", "Figure 7", "Figure 10", "Figure 12", "threshold sweep"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

func TestStudyWorkScheduleShape(t *testing.T) {
	r := studyReport(t)
	ws := r.Schedule
	if ws.Logins < 200 {
		t.Fatalf("hijacker logins = %d, too few", ws.Logins)
	}
	// §5.5: largely inactive over the weekends (uniform would be 28.6%).
	if ws.WeekendShare > 0.05 {
		t.Errorf("weekend share = %.2f, want near zero", ws.WeekendShare)
	}
	// A synchronized lunch break shows as a deep mid-shift dip.
	if ws.LunchDip < 0.5 {
		t.Errorf("lunch dip = %.2f, want pronounced", ws.LunchDip)
	}
	// Tight daily schedule: well under round-the-clock activity.
	if ws.ActiveHours > 18 {
		t.Errorf("active hours = %d, want a shift, not 24/7", ws.ActiveHours)
	}
}

func TestStudyDoppelgangerShape(t *testing.T) {
	r := studyReport(t)
	d := r.Doppelganger
	if d.HijackerSettings < 10 {
		t.Fatalf("hijacker redirections = %d, too few", d.HijackerSettings)
	}
	if d.Precision < 0.9 {
		t.Errorf("doppelganger precision = %.2f, want high", d.Precision)
	}
	if d.Recall < 0.5 {
		t.Errorf("doppelganger recall = %.2f, want useful", d.Recall)
	}
	if d.MeanHijackerSim <= d.MeanOwnerSim {
		t.Error("no similarity separation between hijacker and owner settings")
	}
}
