package report

import (
	"fmt"
	"io"
	"strings"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
)

// RenderStudy writes the full study report: every reproduced table and
// figure with the paper's value alongside the measured one.
func RenderStudy(w io.Writer, r *core.StudyReport) {
	fmt.Fprintf(w, "Manual Account Hijacking — reproduction report\n")
	fmt.Fprintf(w, "events: 2011=%d 2012=%d 2013=%d 2014=%d\n\n",
		r.Events2011, r.Events2012, r.Events2013, r.Events2014)
	renderArtifacts(w, r)
}

// RenderOffline writes the same artifact sections RenderStudy renders,
// for a report computed from a single dumped log by cmd/analyze. skipped
// names the registry analyses that could not run offline (they need the
// live world's directory, which the event log does not carry); their
// sections render as zeros.
func RenderOffline(w io.Writer, r *core.StudyReport, source string, skipped []string) {
	fmt.Fprintf(w, "Manual Account Hijacking — offline analysis of %s\n", source)
	if len(skipped) > 0 {
		fmt.Fprintf(w, "skipped (need the live world, not just its log): %s\n",
			strings.Join(skipped, ", "))
	}
	fmt.Fprintln(w)
	renderArtifacts(w, r)
}

// renderArtifacts writes every reproduced table and figure — the shared
// body of the in-process and offline reports.
func renderArtifacts(w io.Writer, r *core.StudyReport) {
	// ---- §3 base rates ----
	CompareTable(w, "§3 Base rates", []Compare{
		compare("s3.base-rate", F(r.BaseRates.HijacksPerMillionActivePerDay),
			fmt.Sprintf("%d hijacks, %d active, %.0f days (low-intensity world)",
				r.BaseRates.Hijacks, r.BaseRates.ActiveAccounts, r.BaseRates.Days)),
		compare("s3.pages", fmt.Sprintf("%v", r.BaseRates.PagesPerWeek), "sim scale"),
	})
	fmt.Fprintln(w)

	// ---- Table 2 ----
	rows := [][]string{}
	for _, k := range []event.TargetKind{event.TargetMail, event.TargetBank,
		event.TargetAppStore, event.TargetSocial, event.TargetOther} {
		rows = append(rows, []string{string(k),
			Pct(r.Table2.EmailShares[k]), paper("t2.email." + string(k)),
			Pct(r.Table2.PageShares[k]), paper("t2.page." + string(k))})
	}
	Table(w, "Table 2 — phishing targets (Datasets 1–2)",
		[]string{"target", "emails", "paper", "pages", "paper"}, rows)
	fmt.Fprintf(w, "  emails with URLs: %s (paper %s)\n\n", Pct(r.URLShare), paper("t2.urls"))

	// ---- Figures 3–6 ----
	CompareTable(w, "Figure 3 — HTTP referrers (Dataset 3)", []Compare{
		compare("f3.blank", Pct2(r.Fig3.BlankShare), fmt.Sprintf("%d GETs", r.Fig3.TotalGETs)),
	})
	Bars(w, "  non-blank referrers", r.Fig3.NonBlank, 10)
	fmt.Fprintln(w)

	CompareTable(w, "Figure 4 — phished address TLDs (Dataset 3)", []Compare{
		compare("f4.edu", Pct(r.Fig4.EduShare), fmt.Sprintf("%d submissions", r.Fig4.N)),
	})
	Bars(w, "  TLD breakdown", r.Fig4.Shares, 12)
	fmt.Fprintln(w)

	CompareTable(w, "Figure 5 — page success rates (Dataset 3)", []Compare{
		compare("f5.mean", Pct(r.Fig5.Mean), fmt.Sprintf("%d pages", len(r.Fig5.PerPage))),
		compare("f5.min", Pct(r.Fig5.Min), ""),
		compare("f5.max", Pct(r.Fig5.Max), ""),
	})
	fmt.Fprintln(w)

	SeriesFloat(w, "Figure 6 — mean hourly submissions per standard page", r.Fig6.StandardAvg)
	Series(w, "Figure 6 — high-volume outlier page", r.Fig6.Outlier)
	fmt.Fprintf(w, "  outlier quiet period: %dh (paper %s)\n\n",
		r.Fig6.OutlierQuietHours, paper("f6.quiet"))

	// ---- Figures 7–8, Table 3, §5 ----
	CompareTable(w, "Figure 7 — decoy access speed (Dataset 4)", []Compare{
		compare("f7.submitted", fmt.Sprintf("%d", r.Fig7.Submitted), ""),
		compare("f7.accessed", Pct(r.Fig7.AccessedShare), ""),
		compare("f7.30m", Pct(r.Fig7.Within30Min), ""),
		compare("f7.7h", Pct(r.Fig7.Within7Hours), ""),
	})
	fmt.Fprintln(w)

	SeriesFloat(w, "Figure 8 — daily attempts per hijacker IP", r.Fig8.DailyAttempts)
	SeriesFloat(w, "Figure 8 — daily successes per hijacker IP", r.Fig8.DailySuccesses)
	CompareTable(w, "Figure 8 — hijacker activity per IP (Dataset 5)", []Compare{
		compare("f8.accounts", F(r.Fig8.MeanAccountsPerIPDay),
			fmt.Sprintf("max %d over %d IP-days", r.Fig8.MaxAccountsPerIPDay, r.Fig8.IPDays)),
		compare("f8.password-ok", Pct(r.Fig8.PasswordOKShare), "incl. retry variants"),
		compare("f8.success", Pct(r.Fig8.SuccessShare), ""),
	})
	fmt.Fprintln(w)

	Bars(w, "Table 3 — hijacker search terms (Dataset 6)", r.Table3.Terms, 15)
	fmt.Fprintf(w, "  finance share %s (paper: %s); credentials %s; es=%v zh=%v; n=%d\n\n",
		Pct(r.Table3.FinanceShare), paper("t3.finance"), Pct(r.Table3.CredShare),
		r.Table3.HasSpanish, r.Table3.HasChinese, r.Table3.N)

	CompareTable(w, "§5.2 — value assessment (Dataset 7)", []Compare{
		compare("s52.time", r.Assessment.MeanDuration.Round(time.Second).String(),
			fmt.Sprintf("%d cases", r.Assessment.Cases)),
		compare("s52.starred", Pct(r.Assessment.FolderOpenRates[event.FolderStarred]), ""),
		compare("s52.drafts", Pct(r.Assessment.FolderOpenRates[event.FolderDrafts]), ""),
		compare("s52.sent", Pct(r.Assessment.FolderOpenRates[event.FolderSent]), ""),
		compare("s52.trash", Pct(r.Assessment.FolderOpenRates[event.FolderTrash]), ""),
		compare("s52.exploited", Pct(r.Assessment.ExploitedShare), "some abandoned"),
	})
	fmt.Fprintln(w)

	CompareTable(w, "§5.3 — exploitation (Datasets 7–9)", []Compare{
		compare("s53.volume", deltaPct(r.Exploitation.VolumeDelta), "see EXPERIMENTS.md"),
		compare("s53.recipients", deltaPct(r.Exploitation.RecipientsDelta), "≫ volume delta"),
		compare("s53.reports", deltaPct(r.Exploitation.ReportsDelta), ""),
		compare("s53.scam", Pct(r.Exploitation.ScamShare), ""),
		compare("s53.phishing", Pct(r.Exploitation.PhishShare), ""),
		compare("s53.at-most-five", Pct(r.Exploitation.AtMostFiveMessages), ""),
		compare("s53.small", Pct(r.Exploitation.SmallCustomizedShare), "tend to be customized"),
		compare("s53.contacts", F(r.ContactRisk.Multiplier)+"×",
			fmt.Sprintf("%.2f%% vs %.2f%% (n=%d/%d)", r.ContactRisk.ContactRate*100,
				r.ContactRisk.RandomRate*100, r.ContactRisk.ContactCohort, r.ContactRisk.RandomCohort)),
	})
	fmt.Fprintln(w)

	CompareTable(w, "§5.4 — retention tactics (Datasets 7, 10)", []Compare{
		compare("s54.delete-2011", Pct(r.Retention2011.MassDeleteGivenLockout), ""),
		compare("s54.delete-2012", Pct(r.Retention2012.MassDeleteGivenLockout), "restore defense deployed"),
		compare("s54.recovery-2011", Pct(r.Retention2011.RecoveryChangeGivenLockout), ""),
		compare("s54.recovery-2012", Pct(r.Retention2012.RecoveryChangeGivenLockout), ""),
		compare("s54.filters", Pct(r.Retention2012.FilterShare), ""),
		compare("s54.reply-to", Pct(r.Retention2012.ReplyToShare), ""),
	})
	fmt.Fprintln(w)

	// ---- §6 recovery ----
	CompareTable(w, "Figure 9 — recovery latency (Dataset 11)", []Compare{
		compare("f9.1h", Pct(r.Fig9.Within1Hour), fmt.Sprintf("%d recoveries", r.Fig9.Recoveries)),
		compare("f9.13h", Pct(r.Fig9.Within13Hour), ""),
	})
	if r.Fig9.Latencies != nil && r.Fig9.Latencies.N() > 0 {
		cdf := make([]float64, 0, 36)
		for h := 0; h < 36; h++ {
			cdf = append(cdf, r.Fig9.Latencies.FracBelow(float64(h)))
		}
		SeriesFloat(w, "  cumulative recoveries by hour (0–35h)", cdf)
	}
	if r.Fig7.Delays != nil && r.Fig7.Delays.N() > 0 {
		cdf := make([]float64, 0, 46)
		for h := 0; h < 46; h++ {
			cdf = append(cdf, r.Fig7.Delays.FracBelow(float64(h)))
		}
		SeriesFloat(w, "Figure 7 — decoy-access CDF by hour (0–45h)", cdf)
	}
	fmt.Fprintln(w)

	f10rows := []Compare{}
	for _, m := range []event.RecoveryMethod{event.MethodSMS, event.MethodEmail, event.MethodFallback} {
		ms := r.Fig10.Methods[m]
		f10rows = append(f10rows,
			compare("f10."+string(m), Pct2(ms.Rate), fmt.Sprintf("%d attempts", ms.Attempts)))
	}
	CompareTable(w, "Figure 10 — recovery method success (Dataset 12)", f10rows)
	CompareTable(w, "§6.3 — channel reliability", []Compare{
		compare("s63.recycled", Pct(r.Channels.RecycledShare), ""),
		compare("s63.bounces", Pct(r.Channels.BounceShare), fmt.Sprintf("%d email attempts", r.Channels.EmailAttempts)),
	})
	fmt.Fprintln(w)

	// ---- §7 attribution ----
	Bars(w, "Figure 11 — hijack-case IP countries (Dataset 13)", r.Fig11.Shares, 12)
	fmt.Fprintf(w, "  paper: %s; cases=%d\n\n", paper("f11.countries"), r.Fig11.Cases)
	Bars(w, "Figure 12 — hijacker 2SV phone countries (Dataset 14)", r.Fig12.Shares, 12)
	fmt.Fprintf(w, "  paper: %s; phones=%d\n\n", paper("f12.countries"), r.Fig12.Phones)

	// ---- Figure 2 lifecycle funnel ----
	lc := r.Lifecycle
	fmt.Fprintf(w, "Figure 2 — the hijacking cycle as a funnel (2012 world)\n")
	fmt.Fprintf(w, "  %d lures → %d visits → %d credentials → %d attempted → %d entered → %d exploited → %d locked out → %d claims → %d recovered\n",
		lc.LuresDelivered, lc.PageVisits, lc.CredentialsCaptured,
		lc.AccountsAttempted, lc.AccountsEntered, lc.AccountsExploited,
		lc.AccountsLockedOut, lc.ClaimsFiled, lc.AccountsRecovered)
	Bars(w, "  stage survival", lc.Rates(), 8)
	fmt.Fprintln(w)

	// ---- §5.5 office job ----
	hours := make([]int, 24)
	for h, share := range r.Schedule.HourlyShare {
		hours[h] = int(share * 1000)
	}
	Series(w, "§5.5 — hijacker logins by UTC hour (the office-job fingerprint)", hours)
	fmt.Fprintf(w, "  weekend share %s (uniform would be 28.6%%; paper: %s); lunch dip %s; active hours %d; n=%d\n\n",
		Pct(r.Schedule.WeekendShare), paper("s55.weekend"), Pct(r.Schedule.LunchDip), r.Schedule.ActiveHours, r.Schedule.Logins)

	// ---- §5.4 doppelganger review ----
	CompareTable(w, "§5.4 — doppelganger-address review (recovery-time defense)", []Compare{
		compare("s54.doppelganger-precision", Pct(r.Doppelganger.Precision),
			fmt.Sprintf("%d flagged of %d hijacker settings", len(r.Doppelganger.Findings), r.Doppelganger.HijackerSettings)),
		compare("s54.doppelganger-recall", Pct(r.Doppelganger.Recall), "look-alikes only; unrelated drop boxes evade"),
		compare("s54.doppelganger-similarity", F(r.Doppelganger.MeanHijackerSim)+" vs "+F(r.Doppelganger.MeanOwnerSim), ""),
	})
	fmt.Fprintln(w)

	// ---- scam funnel ----
	m := r.Monetization
	CompareTable(w, "§5.3/§5.4 — the scam funnel (this reproduction's instrument)", []Compare{
		compare("funnel.pleas", fmt.Sprintf("%d", m.PleaRecipients), ""),
		compare("funnel.replies", fmt.Sprintf("%d", m.Replies), ""),
		compare("funnel.reached", fmt.Sprintf("%d", m.ReachedCrew), fmt.Sprintf("routes %v", m.ReplyRoutes)),
		compare("funnel.wires", fmt.Sprintf("%d", m.Payments), ""),
		compare("funnel.revenue", fmt.Sprintf("$%.0f ($%.0f/exploited hijack)", m.Revenue, m.RevenuePerHijack), ""),
	})
	fmt.Fprintln(w)

	// ---- §8 defenses ----
	CompareTable(w, "§8 — defense evaluation (this reproduction's instruments)", []Compare{
		compare("s82.precision", Pct(r.Behavior.Precision),
			fmt.Sprintf("%d hijack / %d organic sessions", r.Behavior.HijackSessions, r.Behavior.OrganicSessions)),
		compare("s82.recall", Pct(r.Behavior.Recall), ""),
		compare("s82.exposure", r.Behavior.MeanExposure.Round(time.Second).String(), ""),
	})
	sweep := [][]string{}
	for _, pt := range r.RiskSweep {
		sweep = append(sweep, []string{
			F(pt.Threshold), Pct(pt.HijackerCaught), Pct2(pt.OwnerChallenged)})
	}
	Table(w, "§8.1 — login-risk threshold sweep (counterfactual)",
		[]string{"threshold", "hijackers challenged", "owners challenged"}, sweep)

	// ---- per-archetype scorecard (playbook actors, when fielded) ----
	if sc := r.ArchetypeScorecard; len(sc.Rows) > 0 {
		fmt.Fprintln(w)
		rows := [][]string{}
		for _, row := range sc.Rows {
			rows = append(rows, []string{
				row.Archetype,
				fmt.Sprintf("%d", row.Accounts), fmt.Sprintf("%d", row.Attempts),
				fmt.Sprintf("%d", row.Logins), fmt.Sprintf("%d", row.Challenged),
				fmt.Sprintf("%d", row.Blocked), Pct(row.Recall),
				row.MedianTTD.Round(time.Second).String(),
			})
		}
		Table(w, "§8.1 — per-archetype detection scorecard (2012 world)",
			[]string{"archetype", "accts", "attempts", "in", "challenged", "blocked", "recall", "median-ttd"},
			rows)
		fmt.Fprintf(w, "  owner FP cost: %d logins, %d challenged (%s), %d blocked (%s)\n",
			sc.OwnerLogins, sc.OwnerChallenged, Pct2(sc.OwnerChallengedShare),
			sc.OwnerBlocked, Pct2(sc.OwnerBlockedShare))
	}
}

func deltaPct(f float64) string { return fmt.Sprintf("%+.0f%%", f*100) }
