// Package bench times the study end to end and runs the ablation
// experiments of DESIGN.md §4. BenchmarkStudyParallel runs a
// reduced-scale study at both engine settings; each BenchmarkAblation*
// builds small worlds per configuration and reports what it measures as
// custom metrics. The paper's published values are checked by
// TestPaperLedger in internal/report, not here.
package bench

import (
	"sync"
	"testing"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/playbook"
	"manualhijack/internal/recovery"
	"manualhijack/internal/stats"
)

var (
	once2012 sync.Once
	w2012    *core.World
)

// world2012 is a November 2012 world with the decoy experiment, run once
// and shared by the ablations that fold its log.
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
