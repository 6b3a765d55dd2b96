// Package bench is the benchmark harness regenerating every table and
// figure of the paper's evaluation. Each benchmark re-runs the
// measurement computation over a cached simulated world (the expensive
// world generation happens once per world, outside the timed loop),
// validates the artifact's shape against the paper, and logs the measured
// rows so `go test -bench` output doubles as the reproduction record.
//
// Ablation benchmarks (DESIGN.md §4) run small dedicated worlds per
// configuration and report their findings as custom metrics.
package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/playbook"
	"manualhijack/internal/recovery"
	"manualhijack/internal/stats"
)

// ---- cached worlds -------------------------------------------------------

var (
	once2012, once2011, once2014, onceBase sync.Once
	w2012, w2011, w2014, wBase             *core.World
)

// world2012 is the November 2012 era: most datasets (3–8, 11–12) plus the
// decoy experiment.
func world2012() *core.World {
	once2012.Do(func() {
		cfg := core.DefaultConfig(2012)
		cfg.Start = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)
		cfg.Days = 24
		cfg.PopulationN = 5000
		cfg.Crews = core.Roster2012()
		cfg.CampaignsPerDay = 10
		cfg.DecoyN = 80
		w2012 = core.NewWorld(cfg)
		w2012.InjectDecoys(16 * 24 * time.Hour)
		w2012.Run()
	})
	return w2012
}

// world2011 is the October 2011 era: retention baseline and the contact
// experiment (background campaigns stop at day 15).
func world2011() *core.World {
	once2011.Do(func() {
		cfg := core.DefaultConfig(2011)
		cfg.Start = time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
		cfg.Days = 75
		cfg.PopulationN = 6000
		cfg.Crews = core.Roster2011()
		cfg.CampaignsPerDay = 4
		cfg.CampaignDays = 15
		cfg.Recovery = recovery.Config2011()
		w2011 = core.NewWorld(cfg)
		w2011.Run()
	})
	return w2011
}

// world2014 is the January 2014 era: attribution and the curated phishing
// review.
func world2014() *core.World {
	once2014.Do(func() {
		cfg := core.DefaultConfig(2014)
		cfg.Start = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
		cfg.Days = 24
		cfg.PopulationN = 4000
		cfg.Crews = core.Roster2014()
		cfg.CampaignsPerDay = 9
		w2014 = core.NewWorld(cfg)
		w2014.Run()
	})
	return w2014
}

// worldBase is the low-intensity base-rate world (§3).
func worldBase() *core.World {
	onceBase.Do(func() {
		cfg := core.DefaultConfig(3)
		cfg.Start = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
		cfg.Days = 30
		cfg.PopulationN = 20000
		cfg.Crews = core.Roster2012()
		cfg.CampaignsPerDay = 0.9
		cfg.LureBase = 100
		wBase = core.NewWorld(cfg)
		wBase.Run()
	})
	return wBase
}

// ---- study engine ----------------------------------------------------------

// BenchmarkStudyParallel times the full reduced-scale study end to end at
// both engine settings: the legacy sequential engine (par=1) and the
// GOMAXPROCS worker pool (par=max). On a multi-core runner the pooled
// engine is wall-clock-bound by the slowest era world instead of the sum
// of all five; the determinism test in internal/core asserts both produce
// byte-identical reports.
func BenchmarkStudyParallel(b *testing.B) {
	for _, bc := range []struct {
		name string
		par  int
	}{{"par=1", 1}, {"par=max", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := core.DefaultStudyConfig(11)
				sc.Scale = 0.05
				sc.Parallelism = bc.par
				r := core.RunStudy(sc)
				if r.Events2012 == 0 || r.Fig7.Submitted == 0 {
					b.Fatal("study produced an empty report")
				}
			}
		})
	}
}

// ---- §3 base rates -------------------------------------------------------

func BenchmarkBaseRatesSection3(b *testing.B) {
	w := worldBase()
	var br analysis.BaseRates
	active := 0
	w.Dir.All(func(a *identity.Account) {
		if a.Active(w.End()) {
			active++
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br = analysis.Fold(w.Log, analysis.NewBaseRatesBuilder(w.Cfg.Start)).
			BaseRates(w.Cfg.Start, w.End(), active)
	}
	b.StopTimer()
	if br.HijacksPerMillionActivePerDay > 60 {
		b.Fatalf("base rate = %.1f/M/day, want single-to-low-double digits (paper ~9)", br.HijacksPerMillionActivePerDay)
	}
	b.ReportMetric(br.HijacksPerMillionActivePerDay, "hijacks/Mactive/day")
	b.Logf("§3: %.1f hijacks/M active/day (paper ≈9); pages/week %v", br.HijacksPerMillionActivePerDay, br.PagesPerWeek)
}

// ---- Table 2 --------------------------------------------------------------

func BenchmarkTable2PhishingTargets(b *testing.B) {
	w := world2014()
	var t2 analysis.Table2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 = analysis.Fold(w.Log, analysis.NewPhishSampleBuilder()).Table2(100)
	}
	b.StopTimer()
	if t2.EmailShares[event.TargetMail] <= t2.EmailShares[event.TargetSocial] {
		b.Fatalf("mail should dominate email targets: %v", t2.EmailShares)
	}
	b.ReportMetric(t2.EmailShares[event.TargetMail]*100, "email-mail-%")
	b.ReportMetric(t2.PageShares[event.TargetMail]*100, "page-mail-%")
	b.Logf("Table 2 emails: mail=%.0f%% bank=%.0f%% app=%.0f%% social=%.0f%% other=%.0f%% (paper 35/21/16/14/14)",
		t2.EmailShares[event.TargetMail]*100, t2.EmailShares[event.TargetBank]*100,
		t2.EmailShares[event.TargetAppStore]*100, t2.EmailShares[event.TargetSocial]*100,
		t2.EmailShares[event.TargetOther]*100)
	b.Logf("Table 2 pages:  mail=%.0f%% bank=%.0f%% app=%.0f%% social=%.0f%% other=%.0f%% (paper 27/25/17/15/15)",
		t2.PageShares[event.TargetMail]*100, t2.PageShares[event.TargetBank]*100,
		t2.PageShares[event.TargetAppStore]*100, t2.PageShares[event.TargetSocial]*100,
		t2.PageShares[event.TargetOther]*100)
}

// ---- Figures 3–6 -----------------------------------------------------------

func BenchmarkFigure3Referrers(b *testing.B) {
	w := world2012()
	var f3 analysis.Figure3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f3 = analysis.Fold(w.Log, analysis.NewFigure3Builder()).Figure3(100)
	}
	b.StopTimer()
	if f3.BlankShare < 0.98 {
		b.Fatalf("blank share = %.4f, want >0.98 (paper >99%%)", f3.BlankShare)
	}
	b.ReportMetric(f3.BlankShare*100, "blank-%")
	b.Logf("Figure 3: blank=%.2f%% of %d GETs; top non-blank: %v", f3.BlankShare*100, f3.TotalGETs, top(f3.NonBlank, 3))
}

func BenchmarkFigure4PhishedTLDs(b *testing.B) {
	w := world2012()
	var f4 analysis.Figure4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 = analysis.Fold(w.Log, analysis.NewFigure4Builder()).Figure4(100)
	}
	b.StopTimer()
	if len(f4.Shares) == 0 || f4.Shares[0].Key != "edu" {
		b.Fatalf("top TLD = %v, want edu dominant", f4.Shares)
	}
	b.ReportMetric(f4.EduShare*100, "edu-%")
	b.Logf("Figure 4: edu=%.1f%% of %d submissions; tail: %v", f4.EduShare*100, f4.N, top(f4.Shares, 5))
}

func BenchmarkFigure5SuccessRates(b *testing.B) {
	w := world2012()
	var f5 analysis.Figure5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f5 = analysis.Fold(w.Log, analysis.NewFigure5Builder()).Figure5(100, 25)
	}
	b.StopTimer()
	if f5.Mean < 0.08 || f5.Mean > 0.22 {
		b.Fatalf("mean = %.3f, want ~0.138", f5.Mean)
	}
	b.ReportMetric(f5.Mean*100, "mean-success-%")
	b.Logf("Figure 5: mean=%.1f%% range=%.1f%%–%.1f%% over %d pages (paper 13.78%%, 3–45%%)",
		f5.Mean*100, f5.Min*100, f5.Max*100, len(f5.PerPage))
}

func BenchmarkFigure6SubmissionProfile(b *testing.B) {
	w := world2012()
	var f6 analysis.Figure6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6 = analysis.Fold(w.Log, analysis.NewFigure6Builder()).Figure6(100)
	}
	b.StopTimer()
	if len(f6.StandardAvg) == 0 || len(f6.Outlier) == 0 {
		b.Fatal("missing series")
	}
	b.ReportMetric(float64(f6.OutlierQuietHours), "outlier-quiet-h")
	b.Logf("Figure 6: %d pages, outlier quiet %dh (paper ~15h), outlier span %dh",
		f6.Pages, f6.OutlierQuietHours, len(f6.Outlier))
}

// ---- Figure 7 ---------------------------------------------------------------

func BenchmarkFigure7DecoyAccess(b *testing.B) {
	w := world2012()
	var f7 analysis.Figure7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f7 = analysis.Fold(w.Log, analysis.NewFigure7Builder()).Figure7()
	}
	b.StopTimer()
	if f7.Within7Hours <= f7.Within30Min || f7.Within7Hours == 0 {
		b.Fatalf("decoy CDF broken: %+v", f7)
	}
	b.ReportMetric(f7.Within30Min*100, "within30m-%")
	b.ReportMetric(f7.Within7Hours*100, "within7h-%")
	b.Logf("Figure 7: %d decoys, accessed %.0f%%, ≤30min %.0f%% (paper 20%%), ≤7h %.0f%% (paper 50%%)",
		f7.Submitted, f7.AccessedShare*100, f7.Within30Min*100, f7.Within7Hours*100)
}

// ---- Figure 8 ---------------------------------------------------------------

func BenchmarkFigure8IPActivity(b *testing.B) {
	w := world2012()
	var f8 analysis.Figure8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f8 = analysis.Fold(w.Log, analysis.NewFigure8Builder()).Figure8()
	}
	b.StopTimer()
	if f8.MaxAccountsPerIPDay > 10 {
		b.Fatalf("discipline cap broken: %d accounts on one IP-day", f8.MaxAccountsPerIPDay)
	}
	if f8.PasswordOKShare < 0.55 || f8.PasswordOKShare > 0.85 {
		b.Fatalf("password-ok share = %.2f, want ~0.75", f8.PasswordOKShare)
	}
	b.ReportMetric(f8.MeanAccountsPerIPDay, "accounts/ip-day")
	b.ReportMetric(f8.PasswordOKShare*100, "password-ok-%")
	b.Logf("Figure 8: %.1f accounts/IP-day (paper 9.6, cap 10, max %d), password-ok %.0f%% (paper 75%%), %d IP-days",
		f8.MeanAccountsPerIPDay, f8.MaxAccountsPerIPDay, f8.PasswordOKShare*100, f8.IPDays)
}

// ---- Table 3 ----------------------------------------------------------------

func BenchmarkTable3SearchTerms(b *testing.B) {
	w := world2012()
	var t3 analysis.Table3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 = analysis.Fold(w.Log, analysis.NewTable3Builder()).Table3()
	}
	b.StopTimer()
	if t3.FinanceShare < 0.75 {
		b.Fatalf("finance share = %.2f, want overwhelming", t3.FinanceShare)
	}
	b.ReportMetric(t3.FinanceShare*100, "finance-%")
	b.Logf("Table 3: finance=%.0f%% creds=%.1f%% es=%v zh=%v; top: %v",
		t3.FinanceShare*100, t3.CredShare*100, t3.HasSpanish, t3.HasChinese, top(t3.Terms, 5))
}

// ---- §5.2 assessment --------------------------------------------------------

func BenchmarkAssessmentSection52(b *testing.B) {
	w := world2012()
	var a analysis.Assessment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = analysis.Fold(w.Log, analysis.NewAssessmentBuilder()).Assessment(575)
	}
	b.StopTimer()
	if a.MeanDuration < 2*time.Minute || a.MeanDuration > 4*time.Minute {
		b.Fatalf("mean assessment = %v, want ~3m", a.MeanDuration)
	}
	b.ReportMetric(a.MeanDuration.Seconds(), "assess-sec")
	b.Logf("§5.2: %d cases, mean %v (paper 3m); folders starred=%.0f%% drafts=%.0f%% sent=%.0f%% trash=%.1f%% (paper 16/11/5/<1)",
		a.Cases, a.MeanDuration.Round(time.Second),
		a.FolderOpenRates[event.FolderStarred]*100, a.FolderOpenRates[event.FolderDrafts]*100,
		a.FolderOpenRates[event.FolderSent]*100, a.FolderOpenRates[event.FolderTrash]*100)
}

// ---- §5.3 exploitation ------------------------------------------------------

func BenchmarkExploitationSection53(b *testing.B) {
	w := world2012()
	var e analysis.Exploitation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = analysis.Fold(w.Log, analysis.NewExploitationBuilder()).Exploitation(575)
	}
	b.StopTimer()
	if e.RecipientsDelta <= e.VolumeDelta {
		b.Fatal("recipients delta must exceed volume delta (paper +630% vs +25%)")
	}
	b.ReportMetric(e.ScamShare*100, "scam-%")
	b.Logf("§5.3: vol %+.0f%% (paper +25%%) rcpts %+.0f%% (paper +630%%) reports %+.0f%% (paper +39%%) scam/phish %.0f/%.0f (paper 65/35)",
		e.VolumeDelta*100, e.RecipientsDelta*100, e.ReportsDelta*100, e.ScamShare*100, e.PhishShare*100)
}

func BenchmarkContactRiskSection53(b *testing.B) {
	w := world2011()
	cutoff := w.Cfg.Start.Add(19 * 24 * time.Hour)
	var cr analysis.ContactRisk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr = analysis.Fold(w.Log, analysis.NewContactRiskBuilder()).
			ContactRisk(w.Dir, cutoff, 8*24*time.Hour, 56*24*time.Hour, 3000)
	}
	b.StopTimer()
	if cr.Multiplier < 5 {
		b.Fatalf("contact multiplier = %.1f×, want order of paper's 36×", cr.Multiplier)
	}
	b.ReportMetric(cr.Multiplier, "contact-multiplier")
	b.Logf("§5.3: contacts %.2f%% vs random %.2f%% → %.0f× (paper 36×; n=%d/%d)",
		cr.ContactRate*100, cr.RandomRate*100, cr.Multiplier, cr.ContactCohort, cr.RandomCohort)
}

// ---- §5.4 retention ---------------------------------------------------------

func BenchmarkRetentionSection54(b *testing.B) {
	old := world2011()
	cur := world2012()
	var r11, r12 analysis.Retention
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r11 = analysis.Fold(old.Log, analysis.NewRetentionBuilder()).Retention(600)
		r12 = analysis.Fold(cur.Log, analysis.NewRetentionBuilder()).Retention(575)
	}
	b.StopTimer()
	if r11.MassDeleteGivenLockout <= r12.MassDeleteGivenLockout {
		b.Fatal("mass-deletion must collapse 2011→2012 (restore defense)")
	}
	b.ReportMetric(r11.MassDeleteGivenLockout*100, "del11-%")
	b.ReportMetric(r12.MassDeleteGivenLockout*100, "del12-%")
	b.Logf("§5.4: massdelete|lockout %.0f%%→%.1f%% (paper 46%%→1.6%%); recchange %.0f%%→%.0f%% (paper 60%%→21%%); filters %.0f%% (15%%), reply-to %.0f%% (26%%)",
		r11.MassDeleteGivenLockout*100, r12.MassDeleteGivenLockout*100,
		r11.RecoveryChangeGivenLockout*100, r12.RecoveryChangeGivenLockout*100,
		r12.FilterShare*100, r12.ReplyToShare*100)
}

// ---- Figures 9–10 -----------------------------------------------------------

func BenchmarkFigure9RecoveryLatency(b *testing.B) {
	w := world2012()
	var f9 analysis.Figure9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f9 = analysis.Fold(w.Log, analysis.NewFigure9Builder()).Figure9(5000)
	}
	b.StopTimer()
	if f9.Within13Hour <= f9.Within1Hour {
		b.Fatal("latency CDF broken")
	}
	b.ReportMetric(f9.Within1Hour*100, "within1h-%")
	b.ReportMetric(f9.Within13Hour*100, "within13h-%")
	b.Logf("Figure 9: %d recoveries, ≤1h %.0f%% (paper 22%%), ≤13h %.0f%% (paper 50%%)",
		f9.Recoveries, f9.Within1Hour*100, f9.Within13Hour*100)
}

func BenchmarkFigure10RecoveryMethods(b *testing.B) {
	w := world2012()
	var f10 analysis.Figure10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f10 = analysis.Fold(w.Log, analysis.NewFigure10Builder()).Figure10(w.Cfg.Start, w.End())
	}
	b.StopTimer()
	sms := f10.Methods[event.MethodSMS]
	email := f10.Methods[event.MethodEmail]
	fb := f10.Methods[event.MethodFallback]
	// SMS and email both sit near 75–81%; with modest sample sizes their
	// order can flip, so the hard assertion is only that both beat the
	// fallback by a wide margin.
	if sms.Rate <= fb.Rate+0.2 || email.Rate <= fb.Rate+0.2 {
		b.Fatalf("method ordering wrong: %+v", f10.Methods)
	}
	b.ReportMetric(sms.Rate*100, "sms-%")
	b.ReportMetric(email.Rate*100, "email-%")
	b.ReportMetric(fb.Rate*100, "fallback-%")
	b.Logf("Figure 10: sms=%.1f%% (80.91%%) email=%.1f%% (74.57%%) fallback=%.1f%% (14.20%%)",
		sms.Rate*100, email.Rate*100, fb.Rate*100)
}

// ---- Figures 11–12 ----------------------------------------------------------

func BenchmarkFigure11IPCountries(b *testing.B) {
	w := world2014()
	var f11 analysis.Figure11
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f11 = analysis.Fold(w.Log, analysis.NewFigure11Builder()).Figure11(w.Plan, 3000)
	}
	b.StopTimer()
	top2 := map[string]bool{}
	for _, e := range top(f11.Shares, 2) {
		top2[e] = true
	}
	foundCN, foundMY := false, false
	for k := range top2 {
		if k[:2] == string(geo.China) {
			foundCN = true
		}
		if k[:2] == string(geo.Malaysia) {
			foundMY = true
		}
	}
	if !foundCN || !foundMY {
		b.Fatalf("top-2 countries = %v, want CN and MY", top(f11.Shares, 3))
	}
	b.Logf("Figure 11: %v over %d cases (paper: CN & MY dominate, ZA ≈10%%)", top(f11.Shares, 6), f11.Cases)
}

func BenchmarkFigure12PhoneCountries(b *testing.B) {
	w := world2012()
	var f12 analysis.Figure12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f12 = analysis.Fold(w.Log, analysis.NewFigure12Builder()).Figure12(300)
	}
	b.StopTimer()
	if f12.Phones == 0 {
		b.Fatal("no hijacker phones")
	}
	if k := f12.Shares[0].Key; k != string(geo.IvoryCoast) && k != string(geo.Nigeria) {
		b.Fatalf("top phone country = %s, want CI or NG", k)
	}
	b.Logf("Figure 12: %v over %d phones (paper: CI 33.8%%, NG 31.4%%, ZA 8.4%%, FR 6.4%%)",
		top(f12.Shares, 6), f12.Phones)
}

// ---- §6.3 channels ----------------------------------------------------------

func BenchmarkRecoveryChannelsSection63(b *testing.B) {
	w := world2012()
	secTotal, secRecycled := 0, 0
	w.Dir.All(func(a *identity.Account) {
		if a.SecondaryEmail != "" {
			secTotal++
			if a.SecondaryRecycled {
				secRecycled++
			}
		}
	})
	var ch analysis.RecoveryChannels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch = analysis.Fold(w.Log, analysis.NewRecoveryChannelsBuilder()).
			RecoveryChannels(secTotal, secRecycled)
	}
	b.StopTimer()
	b.ReportMetric(ch.RecycledShare*100, "recycled-%")
	b.Logf("§6.3: recycled=%.1f%% (paper 7%%), bounces=%.1f%% of %d email attempts (paper ~5%%)",
		ch.RecycledShare*100, ch.BounceShare*100, ch.EmailAttempts)
}

// ---- ablations (DESIGN.md §4) ----------------------------------------------

// ablationWorld runs a small world with the given mutation.
func ablationWorld(seed int64, mutate func(*core.Config)) *core.World {
	cfg := core.DefaultConfig(seed)
	cfg.PopulationN = 2500
	cfg.Days = 14
	cfg.CampaignsPerDay = 8
	if mutate != nil {
		mutate(&cfg)
	}
	w := core.NewWorld(cfg)
	w.Run()
	return w
}

// hijackSuccessRate is the share of hijacker login attempts that got in.
func hijackSuccessRate(s *logstore.Store) float64 {
	attempts, successes := 0, 0
	for _, l := range logstore.Select[event.Login](s) {
		if l.Actor != event.ActorHijacker {
			continue
		}
		attempts++
		if l.Outcome == event.LoginSuccess {
			successes++
		}
	}
	if attempts == 0 {
		return 0
	}
	return float64(successes) / float64(attempts)
}

// BenchmarkAblationRiskThreshold sweeps the challenge threshold: the
// §8.1 trade-off between catching hijackers and inconveniencing users.
func BenchmarkAblationRiskThreshold(b *testing.B) {
	w := world2012()
	thresholds := []float64{0.3, 0.5, 0.62, 0.8}
	var pts []analysis.RiskOperatingPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts = analysis.Fold(w.Log, analysis.NewRiskSweepBuilder(thresholds)).Sweep()
	}
	b.StopTimer()
	for _, pt := range pts {
		b.Logf("threshold %.2f: hijackers challenged %.0f%%, owners challenged %.2f%%",
			pt.Threshold, pt.HijackerCaught*100, pt.OwnerChallenged*100)
	}
	if pts[0].HijackerCaught < pts[len(pts)-1].HijackerCaught {
		b.Fatal("sweep not monotone")
	}
}

// BenchmarkAblationRiskSignals removes one risk signal at a time and
// measures how much easier hijacker logins get.
func BenchmarkAblationRiskSignals(b *testing.B) {
	type variant struct {
		name   string
		mutate func(*core.Config)
	}
	variants := []variant{
		{"full", nil},
		{"no-geo", func(c *core.Config) { c.RiskW.NewCountry = 0; c.RiskW.ImpossibleHop = 0 }},
		{"no-device", func(c *core.Config) { c.RiskW.NewDevice = 0 }},
		{"no-fanout", func(c *core.Config) { c.RiskW.IPFanout = 0 }},
		{"disabled", func(c *core.Config) { c.Auth.RiskEnabled = false }},
	}
	results := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			w := ablationWorld(500+int64(i), v.mutate)
			results[v.name] = hijackSuccessRate(w.Log)
		}
	}
	b.StopTimer()
	for _, v := range variants {
		b.Logf("%-10s hijacker login success %.0f%%", v.name, results[v.name]*100)
	}
	if results["disabled"] < results["full"] {
		b.Fatal("disabling risk analysis should help hijackers")
	}
}

// BenchmarkAblationBehaviorWindow sweeps the behavioral detector's
// observation window: fire fast (little evidence) vs fire late (more
// exposure) — §8.2's "last resort" concern quantified.
func BenchmarkAblationBehaviorWindow(b *testing.B) {
	w := world2012()
	windows := []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 0}
	type res struct {
		recall   float64
		exposure time.Duration
	}
	results := map[time.Duration]res{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, win := range windows {
			cfg := behavior.DefaultConfig()
			cfg.Window = win
			ev := analysis.Fold(w.Log, analysis.NewBehaviorEvalBuilder(cfg)).DetectionEval()
			results[win] = res{ev.Recall, ev.MeanExposure}
		}
	}
	b.StopTimer()
	for _, win := range windows {
		name := win.String()
		if win == 0 {
			name = "unlimited"
		}
		b.Logf("window %-10s recall %.0f%% exposure %v",
			name, results[win].recall*100, results[win].exposure.Round(time.Second))
	}
	if results[0].recall < results[30*time.Second].recall {
		b.Fatal("longer window must not lose recall")
	}
}

// BenchmarkAblationNotifications compares end-to-end hijack→recovery
// latency with and without proactive notifications (§6.2/§8.2). The
// latency anchor is the ground-truth hijack time, which stays comparable
// when notifications (the system flag source) are off.
func BenchmarkAblationNotifications(b *testing.B) {
	hijackToRecovery := func(w *core.World) (median float64, n int) {
		var s stats.Sample
		for _, r := range logstore.Select[event.ClaimResolved](w.Log) {
			if !r.Success || r.HijackedAt.IsZero() {
				continue
			}
			s.Add(r.When().Sub(r.HijackedAt).Hours())
		}
		return s.Median(), s.N()
	}
	var medOn, medOff float64
	var nOn, nOff int
	var revOn, revOff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wOn := ablationWorld(700+int64(i), nil)
		wOff := ablationWorld(700+int64(i), func(c *core.Config) { c.Auth.NotificationsEnabled = false })
		medOn, nOn = hijackToRecovery(wOn)
		medOff, nOff = hijackToRecovery(wOff)
		revOn = analysis.Fold(wOn.Log, analysis.NewMonetizationBuilder()).Monetization().Revenue
		revOff = analysis.Fold(wOff.Log, analysis.NewMonetizationBuilder()).Monetization().Revenue
	}
	b.StopTimer()
	b.ReportMetric(medOn, "median-h-on")
	b.ReportMetric(medOff, "median-h-off")
	b.Logf("notifications on:  median hijack→recovery %.1fh over %d recoveries, scam revenue $%.0f", medOn, nOn, revOn)
	b.Logf("notifications off: median hijack→recovery %.1fh over %d recoveries, scam revenue $%.0f", medOff, nOff, revOff)
	if nOn > 10 && nOff > 10 && medOn >= medOff {
		b.Log("warning: notifications did not speed up recovery in this sample")
	}
}

// BenchmarkAblationRestore reruns the 2011→2012 natural experiment: with
// restore-on-recovery enabled, hijacker mass deletion stops costing
// victims their mail.
func BenchmarkAblationRestore(b *testing.B) {
	tactics := playbook.Tactics2011() // mass deletion at its 2011 rate
	// Metric: mean end-of-window mailbox size of accounts that suffered a
	// hijacker mass deletion. With restore enabled, recovery puts the
	// history back; without it the victim keeps only post-deletion mail.
	meanDeletedMailbox := func(w *core.World) (mean float64, n int) {
		seen := map[identity.AccountID]bool{}
		total := 0
		for _, d := range logstore.Select[event.MassDeletion](w.Log) {
			if d.Actor != event.ActorHijacker || seen[d.Account] {
				continue
			}
			seen[d.Account] = true
			total += w.Mail.Mailbox(d.Account).Len()
		}
		if len(seen) == 0 {
			return 0, 0
		}
		return float64(total) / float64(len(seen)), len(seen)
	}
	var sizeOn, sizeOff float64
	var nOn, nOff int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wOn := ablationWorld(900+int64(i), func(c *core.Config) {
			c.Crews = withTactics(core.Roster2011(), tactics)
		})
		wOff := ablationWorld(900+int64(i), func(c *core.Config) {
			c.Crews = withTactics(core.Roster2011(), tactics)
			c.Recovery = recovery.Config2011()
		})
		sizeOn, nOn = meanDeletedMailbox(wOn)
		sizeOff, nOff = meanDeletedMailbox(wOff)
	}
	b.StopTimer()
	b.ReportMetric(sizeOn, "msgs-restore-on")
	b.ReportMetric(sizeOff, "msgs-restore-off")
	b.Logf("restore on:  mass-deleted victims keep %.0f messages on average (n=%d)", sizeOn, nOn)
	b.Logf("restore off: mass-deleted victims keep %.0f messages on average (n=%d)", sizeOff, nOff)
	if nOn > 3 && nOff > 3 && sizeOn <= sizeOff {
		b.Log("warning: restore did not preserve content in this sample")
	}
}

func withTactics(specs []core.CrewSpec, t playbook.Tactics) []core.CrewSpec {
	out := make([]core.CrewSpec, len(specs))
	for i, s := range specs {
		s.Config.Tactics = t
		out[i] = s
	}
	return out
}

// top formats the first n entries compactly.
func top(entries []stats.Entry, n int) []string {
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]string, 0, n)
	for _, e := range entries[:n] {
		out = append(out, fmt.Sprintf("%s=%.1f%%", e.Key, e.Share*100))
	}
	return out
}

// BenchmarkAblationAppPasswords quantifies §8.2's second-factor caveat:
// 2-step verification stops credential-phished hijacks cold, but issuing
// phishable application-specific passwords for legacy clients reopens the
// door.
func BenchmarkAblationAppPasswords(b *testing.B) {
	// Hijack success measured only over 2SV-enrolled accounts.
	successOn2SV := func(w *core.World) (rate float64, attempts int) {
		succ := 0
		for _, l := range logstore.Select[event.Login](w.Log) {
			if l.Actor != event.ActorHijacker {
				continue
			}
			a := w.Dir.Get(l.Account)
			if a == nil || !a.TwoSV || a.LockedByPhone {
				continue
			}
			attempts++
			if l.Outcome == event.LoginSuccess {
				succ++
			}
		}
		if attempts == 0 {
			return 0, 0
		}
		return float64(succ) / float64(attempts), attempts
	}
	var rateNoApp, rateApp float64
	var nNoApp, nApp int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wNoApp := ablationWorld(1100+int64(i), func(c *core.Config) {
			c.TwoSVAdoption = 0.5
			c.AppPasswordShare = 0
		})
		wApp := ablationWorld(1100+int64(i), func(c *core.Config) {
			c.TwoSVAdoption = 0.5
			c.AppPasswordShare = 1.0
		})
		rateNoApp, nNoApp = successOn2SV(wNoApp)
		rateApp, nApp = successOn2SV(wApp)
	}
	b.StopTimer()
	b.ReportMetric(rateNoApp*100, "2sv-only-%")
	b.ReportMetric(rateApp*100, "2sv+apppw-%")
	b.Logf("2SV only:          hijacker success on 2SV accounts %.0f%% (n=%d)", rateNoApp*100, nNoApp)
	b.Logf("2SV + app passwd:  hijacker success on 2SV accounts %.0f%% (n=%d)", rateApp*100, nApp)
	if nApp > 10 && rateApp <= rateNoApp {
		b.Log("warning: app passwords did not weaken 2SV in this sample")
	}
}

// BenchmarkWorkScheduleSection55 regenerates the §5.5 "ordinary office
// job" evidence from hijacker login timestamps.
func BenchmarkWorkScheduleSection55(b *testing.B) {
	w := world2012()
	var ws analysis.WorkSchedule
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws = analysis.Fold(w.Log, analysis.NewWorkScheduleBuilder()).WorkSchedule()
	}
	b.StopTimer()
	if ws.WeekendShare > 0.05 {
		b.Fatalf("weekend share = %.2f, crews work weekends?", ws.WeekendShare)
	}
	b.ReportMetric(ws.WeekendShare*100, "weekend-%")
	b.ReportMetric(ws.LunchDip*100, "lunch-dip-%")
	b.Logf("§5.5: weekend %.1f%% (uniform 28.6%%), lunch dip %.0f%%, active hours %d, n=%d",
		ws.WeekendShare*100, ws.LunchDip*100, ws.ActiveHours, ws.Logins)
}

// BenchmarkDoppelgangerReview evaluates the §5.4 recovery-time review of
// Reply-To/forwarding settings via address similarity.
func BenchmarkDoppelgangerReview(b *testing.B) {
	w := world2012()
	var d analysis.DoppelgangerEval
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = analysis.Fold(w.Log, analysis.NewDoppelgangerBuilder(w.Dir, 0.75)).DoppelgangerEval()
	}
	b.StopTimer()
	if d.MeanHijackerSim <= d.MeanOwnerSim {
		b.Fatal("no similarity separation")
	}
	b.ReportMetric(d.Precision*100, "precision-%")
	b.ReportMetric(d.Recall*100, "recall-%")
	b.Logf("§5.4 doppelganger review: precision %.0f%% recall %.0f%% (sim %.2f vs %.2f, %d hijacker settings)",
		d.Precision*100, d.Recall*100, d.MeanHijackerSim, d.MeanOwnerSim, d.HijackerSettings)
}

// BenchmarkScamFunnel regenerates the monetization funnel: pleas →
// engagement → routed replies → wires, the economics behind §5.3/§5.4.
func BenchmarkScamFunnel(b *testing.B) {
	w := world2012()
	var m analysis.Monetization
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = analysis.Fold(w.Log, analysis.NewMonetizationBuilder()).Monetization()
	}
	b.StopTimer()
	if m.PleaRecipients == 0 {
		b.Fatal("no scam pleas in the world")
	}
	if m.Replies > 0 && m.ReachedCrew > m.Replies {
		b.Fatal("funnel not monotone")
	}
	b.ReportMetric(float64(m.Payments), "wires")
	b.ReportMetric(m.Revenue, "revenue-usd")
	b.Logf("funnel: %d plea recipients → %d engaged → %d reached crew → %d wires ($%.0f, $%.0f/exploited hijack; routes %v)",
		m.PleaRecipients, m.Replies, m.ReachedCrew, m.Payments, m.Revenue, m.RevenuePerHijack, m.ReplyRoutes)
}

// BenchmarkAblationDeviceSpoofing measures how much crews gain from
// mimicking the victim's browser fingerprint (§8.1: hijackers know their
// way around "browser plugins"), which blinds the new-device risk signal.
func BenchmarkAblationDeviceSpoofing(b *testing.B) {
	spoofAll := func(specs []core.CrewSpec) []core.CrewSpec {
		out := make([]core.CrewSpec, len(specs))
		for i, s := range specs {
			s.Config.DeviceSpoofing = true
			out[i] = s
		}
		return out
	}
	var plain, spoofed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wPlain := ablationWorld(1300+int64(i), nil)
		wSpoof := ablationWorld(1300+int64(i), func(c *core.Config) {
			c.Crews = spoofAll(c.Crews)
		})
		plain = hijackSuccessRate(wPlain.Log)
		spoofed = hijackSuccessRate(wSpoof.Log)
	}
	b.StopTimer()
	b.ReportMetric(plain*100, "plain-%")
	b.ReportMetric(spoofed*100, "spoofed-%")
	b.Logf("shared kit fingerprint: hijacker login success %.0f%%", plain*100)
	b.Logf("spoofed owner device:   hijacker login success %.0f%%", spoofed*100)
	if spoofed < plain {
		b.Log("warning: spoofing did not help in this sample")
	}
}

// BenchmarkLifecycleFigure2 regenerates Figure 2's hijacking cycle as a
// survival funnel.
func BenchmarkLifecycleFigure2(b *testing.B) {
	w := world2012()
	var l analysis.Lifecycle
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = analysis.Fold(w.Log, analysis.NewLifecycleBuilder()).Lifecycle()
	}
	b.StopTimer()
	if l.AccountsEntered > l.AccountsAttempted || l.AccountsExploited > l.AccountsEntered {
		b.Fatalf("funnel not monotone: %+v", l)
	}
	if l.AccountsRecovered > l.ClaimsFiled {
		b.Fatalf("recoveries exceed claims: %+v", l)
	}
	b.ReportMetric(float64(l.AccountsEntered), "hijacks")
	b.Logf("Figure 2: %d lures → %d creds → %d entered → %d exploited → %d locked → %d claims → %d recovered",
		l.LuresDelivered, l.CredentialsCaptured, l.AccountsEntered,
		l.AccountsExploited, l.AccountsLockedOut, l.ClaimsFiled, l.AccountsRecovered)
}

// BenchmarkAblationBehavioralDefense flips the online §8.2 behavioral
// defense on and compares hijacker monetization: the detector fires after
// exposure ("already too late" for secrecy) but still cuts the scam
// window by suspending accounts and accelerating recovery.
func BenchmarkAblationBehavioralDefense(b *testing.B) {
	var revOff, revOn float64
	var suspended int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wOff := ablationWorld(1500+int64(i), nil)
		wOn := ablationWorld(1500+int64(i), func(c *core.Config) { c.BehavioralDefense = true })
		revOff = analysis.Fold(wOff.Log, analysis.NewMonetizationBuilder()).Monetization().Revenue
		revOn = analysis.Fold(wOn.Log, analysis.NewMonetizationBuilder()).Monetization().Revenue
		suspended = wOn.Guard.Suspended
	}
	b.StopTimer()
	b.ReportMetric(revOff, "revenue-off-usd")
	b.ReportMetric(revOn, "revenue-on-usd")
	b.Logf("behavioral defense off: scam revenue $%.0f", revOff)
	b.Logf("behavioral defense on:  scam revenue $%.0f (%d accounts suspended)", revOn, suspended)
	if revOn > revOff {
		b.Log("warning: defense did not reduce revenue in this sample")
	}
}

// BenchmarkAblationRecoveryFraud compares the §6.3 fallback policies:
// offering the knowledge test only as a true last resort vs whenever the
// stronger methods fail. The unrestricted policy hands impostors a
// guessing route around SMS verification.
func BenchmarkAblationRecoveryFraud(b *testing.B) {
	var restricted, open analysis.RecoveryFraud
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wRestricted := ablationWorld(1700+int64(i), nil)
		wOpen := ablationWorld(1700+int64(i), func(c *core.Config) {
			c.Recovery.FallbackLastResortOnly = false
		})
		restricted = analysis.ComputeRecoveryFraud(wRestricted.Log)
		open = analysis.ComputeRecoveryFraud(wOpen.Log)
	}
	b.StopTimer()
	b.ReportMetric(restricted.Rate*100, "fraud-restricted-%")
	b.ReportMetric(open.Rate*100, "fraud-open-%")
	b.Logf("fallback last-resort only: impostor claims %d, won %d (%.0f%%)",
		restricted.Attempts, restricted.Successes, restricted.Rate*100)
	b.Logf("fallback always offered:   impostor claims %d, won %d (%.0f%%)",
		open.Attempts, open.Successes, open.Rate*100)
	if open.Attempts > 10 && open.Rate <= restricted.Rate {
		b.Log("warning: open fallback did not raise fraud success in this sample")
	}
}
