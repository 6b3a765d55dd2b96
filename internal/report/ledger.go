package report

import (
	"math"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/stats"
)

// claim is one published value of the paper and how the reproduction is
// held to it. The report prints paper beside the measured value, under
// artifact and metric; TestPaperLedger runs a study and requires each
// measured value to fall in band once its sample n reaches floor. A claim
// whose row the report does not print checks a property of what it does
// print, such as an ordering or a count, and its paper text says what the
// paper claims.
type claim struct {
	id, artifact, metric, paper string
	// band is an interval such as "[0.25, 0.45]" or "(0, inf)": a bracket
	// includes its end and a parenthesis excludes it. A value no check
	// constrains is banded by its domain, e.g. "[0, 1]" for a share.
	band    string
	floor   int
	measure measure
}

// measure extracts a claim's value from a study report, with the sample
// size it rests on (0 where the report keeps no count).
type measure func(r *core.StudyReport) (value float64, n int)

// ledger holds every paper value the report prints, in report order. It
// is the only place they are written down.
var ledger = []claim{
	// §3 base rates.
	{"s3.base-rate", "§3", "manual hijacks / M active users / day", "≈9", "(-inf, 60]", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.BaseRates.HijacksPerMillionActivePerDay, r.BaseRates.Hijacks
		}},
	{"s3.pages", "§3", "phishing pages detected / week", "16k–25k (Google scale)", "[0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			total := 0
			for _, pages := range r.BaseRates.PagesPerWeek {
				total += pages
			}
			weeks := len(r.BaseRates.PagesPerWeek)
			return stats.Ratio(float64(total), float64(weeks)), weeks
		}},

	// Table 2: the share of each target among curated emails and pages.
	{"t2.email.mail", "T2", "emails: mail", "35%", "[0.25, 0.45]", 1, emailShare(event.TargetMail)},
	{"t2.email.bank", "T2", "emails: bank", "21%", "[0, 1]", 1, emailShare(event.TargetBank)},
	{"t2.email.appstore", "T2", "emails: appstore", "16%", "[0, 1]", 1, emailShare(event.TargetAppStore)},
	{"t2.email.social", "T2", "emails: social", "14%", "[0, 1]", 1, emailShare(event.TargetSocial)},
	{"t2.email.other", "T2", "emails: other", "14%", "[0, 1]", 1, emailShare(event.TargetOther)},
	{"t2.page.mail", "T2", "pages: mail", "27%", "[0.18, 0.40]", 1, pageShare(event.TargetMail)},
	{"t2.page.bank", "T2", "pages: bank", "25%", "[0, 1]", 1, pageShare(event.TargetBank)},
	{"t2.page.appstore", "T2", "pages: appstore", "17%", "[0, 1]", 1, pageShare(event.TargetAppStore)},
	{"t2.page.social", "T2", "pages: social", "15%", "[0, 1]", 1, pageShare(event.TargetSocial)},
	{"t2.page.other", "T2", "pages: other", "15%", "[0, 1]", 1, pageShare(event.TargetOther)},
	{"t2.mail-leads", "T2", "emails: mail minus max(appstore, social)", "35% > 16%, 14%", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			e := r.Table2.EmailShares
			return e[event.TargetMail] - math.Max(e[event.TargetAppStore], e[event.TargetSocial]), r.Table2.EmailN
		}},
	// HasURL is drawn per campaign, so the 100-lure sample clusters to an
	// effective n of ~40 campaigns; the band reflects that.
	{"t2.urls", "T2", "emails with URLs", "62%", "[0.42, 0.80]", 1,
		func(r *core.StudyReport) (float64, int) { return r.URLShare, r.Table2.EmailN }},

	// Figures 3–6, from the phishing pages' HTTP logs.
	{"f3.blank", "F3", "blank referrer share", ">99%", "[0.98, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig3.BlankShare, r.Fig3.TotalGETs }},
	{"f3.sources", "F3", "non-blank referrer sources", "webmail dominates the rest", "[3, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return float64(len(r.Fig3.NonBlank)), r.Fig3.TotalGETs }},
	{"f4.edu", "F4", "edu share", "dominant (paper text: >99%)", "[0.5, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig4.EduShare, r.Fig4.N }},
	{"f4.edu-leads", "F4", "edu is the top TLD", "edu dominates", "[1, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return topHas(r.Fig4.Shares, 1, "edu"), r.Fig4.N }},
	{"f4.tlds", "F4", "TLDs", "a long tail", "[5, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return float64(len(r.Fig4.Shares)), r.Fig4.N }},
	{"f5.mean", "F5", "mean POST/GET", "13.78%", "[0.08, 0.22]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig5.Mean, len(r.Fig5.PerPage) }},
	{"f5.min", "F5", "min", "≈3%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig5.Min, len(r.Fig5.PerPage) }},
	{"f5.max", "F5", "max", "≈45%", "[0.25, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig5.Max, len(r.Fig5.PerPage) }},
	{"f5.spread", "F5", "max minus min", "≈3–45%", "[0.15, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig5.Max - r.Fig5.Min, len(r.Fig5.PerPage) }},
	{"f6.decay", "F6", "standard pages: first-quarter minus last-quarter submissions", "decay", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			avg := r.Fig6.StandardAvg
			early, late := 0.0, 0.0
			for i, v := range avg {
				if i < len(avg)/4 {
					early += v
				} else if i >= len(avg)*3/4 {
					late += v
				}
			}
			return early - late, len(avg)
		}},
	{"f6.quiet", "F6", "outlier quiet period (h)", "≈15h of attacker self-testing", "[6, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return float64(r.Fig6.OutlierQuietHours), len(r.Fig6.Outlier)
		}},

	// Figures 7–8, Table 3 and §5.
	{"f7.submitted", "F7", "decoys submitted", "200", "[0, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return float64(r.Fig7.Submitted), r.Fig7.Submitted }},
	{"f7.accessed", "F7", "accessed", "most (not all)", "[0.6, 1)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig7.AccessedShare, r.Fig7.Submitted }},
	{"f7.30m", "F7", "accessed within 30 min", "20%", "[0.08, 0.45]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig7.Within30Min, r.Fig7.Submitted }},
	{"f7.7h", "F7", "accessed within 7 h", "50%", "[0.30, 0.75]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig7.Within7Hours, r.Fig7.Submitted }},
	{"f7.cdf-rises", "F7", "within 7 h minus within 30 min", "50% > 20%", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Fig7.Within7Hours - r.Fig7.Within30Min, r.Fig7.Submitted
		}},
	{"f8.accounts", "F8", "distinct accounts / IP / day", "9.6 (consistently <10)", "[3, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig8.MeanAccountsPerIPDay, r.Fig8.IPDays }},
	{"f8.max-accounts", "F8", "max distinct accounts on one IP-day", "consistently <10", "(-inf, 10]", 1,
		func(r *core.StudyReport) (float64, int) { return float64(r.Fig8.MaxAccountsPerIPDay), r.Fig8.IPDays }},
	{"f8.password-ok", "F8", "correct password share", "75%", "[0.55, 0.85]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig8.PasswordOKShare, r.Fig8.IPDays }},
	{"f8.success", "F8", "login success share", "(lower: defenses)", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Fig8.SuccessShare, r.Fig8.IPDays }},
	{"t3.finance", "T3", "finance share", "finance dominates", "[0.75, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Table3.FinanceShare, r.Table3.N }},
	{"t3.credentials", "T3", "credential share", "finance ≫ credentials", "(-inf, 0.15]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Table3.CredShare, r.Table3.N }},
	{"t3.spanish", "T3", "Spanish terms present", "some es terms", "[1, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return truth(r.Table3.HasSpanish), r.Table3.N }},
	{"t3.chinese", "T3", "Chinese terms present", "some zh terms", "[1, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return truth(r.Table3.HasChinese), r.Table3.N }},
	// "wire transfer" and "bank transfer" have near-equal Table 3 weights:
	// either may sample on top, but both must lead the list.
	{"t3.transfers-lead", "T3", "wire/bank transfer among the top two terms", "wire transfer, bank transfer", "[2, 2]", 1,
		func(r *core.StudyReport) (float64, int) {
			return topHas(r.Table3.Terms, 2, "wire transfer", "bank transfer"), r.Table3.N
		}},
	{"s52.time", "§5.2", "mean assessment time", "3 min", "[2, 4]", 50,
		func(r *core.StudyReport) (float64, int) {
			return r.Assessment.MeanDuration.Minutes(), r.Assessment.Cases
		}},
	{"s52.starred", "§5.2", "Starred opened", "16%", "[0.08, 0.28]", 50, folderRate(event.FolderStarred)},
	{"s52.drafts", "§5.2", "Drafts opened", "11%", "[0, 1]", 50, folderRate(event.FolderDrafts)},
	{"s52.sent", "§5.2", "Sent opened", "5%", "[0, 1]", 50, folderRate(event.FolderSent)},
	{"s52.trash", "§5.2", "Trash opened", "<1%", "(-inf, 0.05]", 50, folderRate(event.FolderTrash)},
	{"s52.starred-over-sent", "§5.2", "Starred minus Sent opened", "16% > 5%", "(0, inf)", 50,
		func(r *core.StudyReport) (float64, int) {
			f := r.Assessment.FolderOpenRates
			return f[event.FolderStarred] - f[event.FolderSent], r.Assessment.Cases
		}},
	{"s52.exploited", "§5.2", "exploited share", "(not stated)", "(0.2, 0.95)", 50,
		func(r *core.StudyReport) (float64, int) { return r.Assessment.ExploitedShare, r.Assessment.Cases }},
	{"s53.volume", "§5.3", "hijack-day mail volume delta", "+25%", "[-1, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Exploitation.VolumeDelta, r.Exploitation.Cases }},
	{"s53.recipients", "§5.3", "distinct recipients delta", "+630%", "[-1, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Exploitation.RecipientsDelta, r.Exploitation.Cases }},
	{"s53.recipients-over-volume", "§5.3", "recipients delta minus volume delta", "+630% ≫ +25%", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Exploitation.RecipientsDelta - r.Exploitation.VolumeDelta, r.Exploitation.Cases
		}},
	{"s53.reports", "§5.3", "spam reports delta", "+39%", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Exploitation.ReportsDelta, r.Exploitation.Cases }},
	{"s53.scam", "§5.3", "scam share of sent mail", "65%", "[0.5, 0.85]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Exploitation.ScamShare, r.Exploitation.Cases }},
	{"s53.phishing", "§5.3", "phishing share", "35%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Exploitation.PhishShare, r.Exploitation.Cases }},
	{"s53.at-most-five", "§5.3", "victims with ≤5 messages", "65%", "[0.5, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Exploitation.AtMostFiveMessages, r.Exploitation.Cases
		}},
	{"s53.small", "§5.3", "cases with <10-recipient mail", "6%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Exploitation.SmallCustomizedShare, r.Exploitation.Cases
		}},
	// The random cohort's hit count is 0–3 events, so the multiplier's seed
	// variance spans roughly 8×–70× around the paper's 36×.
	{"s53.contacts", "§5.3", "contact-cohort hijack multiplier", "36×", "[8, inf)", 200,
		func(r *core.StudyReport) (float64, int) { return r.ContactRisk.Multiplier, r.ContactRisk.RandomCohort }},
	{"s53.contacts-elevated", "§5.3", "contact-cohort minus random-cohort hijack rate", "36× the random rate", "(0, inf)", 50,
		func(r *core.StudyReport) (float64, int) {
			return r.ContactRisk.ContactRate - r.ContactRisk.RandomRate, r.ContactRisk.ContactCohort
		}},
	{"s54.delete-2011", "§5.4", "mass deletion | lockout, 2011", "46%", "[0.3, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Retention2011.MassDeleteGivenLockout, lockouts(r.Retention2011)
		}},
	{"s54.delete-2012", "§5.4", "mass deletion | lockout, 2012", "1.6%", "(-inf, 0.08]", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Retention2012.MassDeleteGivenLockout, lockouts(r.Retention2012)
		}},
	{"s54.recovery-2011", "§5.4", "recovery changes | lockout, 2011", "60%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Retention2011.RecoveryChangeGivenLockout, lockouts(r.Retention2011)
		}},
	{"s54.recovery-2012", "§5.4", "recovery changes | lockout, 2012", "21%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Retention2012.RecoveryChangeGivenLockout, lockouts(r.Retention2012)
		}},
	{"s54.recovery-drops", "§5.4", "recovery changes | lockout, 2011 minus 2012", "60% → 21%", "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			drop := r.Retention2011.RecoveryChangeGivenLockout - r.Retention2012.RecoveryChangeGivenLockout
			return drop, min(lockouts(r.Retention2011), lockouts(r.Retention2012))
		}},
	{"s54.filters", "§5.4", "forwarding filters, 2012", "15%", "[0.05, 0.30]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Retention2012.FilterShare, r.Retention2012.Cases }},
	{"s54.reply-to", "§5.4", "hijacker Reply-To, 2012", "26%", "[0.10, 0.40]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Retention2012.ReplyToShare, r.Retention2012.Cases }},

	// §6 recovery.
	{"f9.1h", "F9", "recovered within 1 h", "22%", "[0.05, 0.45]", 20,
		func(r *core.StudyReport) (float64, int) { return r.Fig9.Within1Hour, r.Fig9.Recoveries }},
	{"f9.13h", "F9", "recovered within 13 h", "50%", "[0.35, 0.92]", 20,
		func(r *core.StudyReport) (float64, int) { return r.Fig9.Within13Hour, r.Fig9.Recoveries }},
	{"f9.cdf-rises", "F9", "within 13 h minus within 1 h", "50% > 22%", "(0, inf)", 20,
		func(r *core.StudyReport) (float64, int) {
			return r.Fig9.Within13Hour - r.Fig9.Within1Hour, r.Fig9.Recoveries
		}},
	{"f10.sms", "F10", "sms success rate", "80.91%", "[0.65, 0.95]", 1, methodRate(event.MethodSMS)},
	{"f10.email", "F10", "email success rate", "74.57%", "[0, 1]", 1, methodRate(event.MethodEmail)},
	{"f10.fallback", "F10", "fallback success rate", "14.20%", "(-inf, 0.40]", 1, methodRate(event.MethodFallback)},
	// SMS and email both sit near 75–81% and can swap order in modest
	// samples; the hard property is that both far exceed the fallback.
	{"f10.strong-over-fallback", "F10", "min(sms, email) minus fallback success rate", "SMS ≈ email ≫ fallback", "(0.2, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			m := r.Fig10.Methods
			sms, email, fb := m[event.MethodSMS], m[event.MethodEmail], m[event.MethodFallback]
			return math.Min(sms.Rate, email.Rate) - fb.Rate, min(sms.Attempts, email.Attempts, fb.Attempts)
		}},
	{"s63.recycled", "§6.3", "secondary emails recycled", "7%", "[0.04, 0.10]", 0,
		func(r *core.StudyReport) (float64, int) { return r.Channels.RecycledShare, 0 }},
	{"s63.bounces", "§6.3", "email attempts bouncing", "≈5%", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) { return r.Channels.BounceShare, r.Channels.EmailAttempts }},

	// §7 attribution. n is the number of countries, so at least three must
	// show before the top two can lead.
	{"f11.countries", "F11", "CN and MY among the top two countries", "China & Malaysia dominate, ZA ≈10%", "[2, 2]", 3,
		func(r *core.StudyReport) (float64, int) {
			return topHas(r.Fig11.Shares, 2, string(geo.China), string(geo.Malaysia)), len(r.Fig11.Shares)
		}},
	{"f12.countries", "F12", "CI or NG is the top phone country", "CI 33.8%, NG 31.4%, ZA 8.4%, FR 6.4%", "[1, 1]", 5,
		func(r *core.StudyReport) (float64, int) {
			return topHas(r.Fig12.Shares, 1, string(geo.IvoryCoast), string(geo.Nigeria)), r.Fig12.Phones
		}},
	{"f12.no-cn-my", "F12", "CN and MY phone countries", "none: those crews never used the phone tactic", "[0, 0]", 5,
		func(r *core.StudyReport) (float64, int) {
			return topHas(r.Fig12.Shares, len(r.Fig12.Shares), string(geo.China), string(geo.Malaysia)), r.Fig12.Phones
		}},

	// Figure 2: each stage of the hijacking cycle is a subset of the one
	// before it.
	{"f2.entered", "F2", "entry | attempt", "a subset", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			lc := r.Lifecycle
			return stats.Ratio(float64(lc.AccountsEntered), float64(lc.AccountsAttempted)), lc.AccountsAttempted
		}},
	{"f2.exploited", "F2", "exploit | entry", "a subset", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			lc := r.Lifecycle
			return stats.Ratio(float64(lc.AccountsExploited), float64(lc.AccountsEntered)), lc.AccountsEntered
		}},
	{"f2.recovered", "F2", "recovered | claim", "a subset", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			lc := r.Lifecycle
			return stats.Ratio(float64(lc.AccountsRecovered), float64(lc.ClaimsFiled)), lc.ClaimsFiled
		}},

	// §5.5 office job: a uniform schedule would put 28.6% on weekends.
	{"s55.weekend", "§5.5", "weekend share of hijacker logins", `"largely inactive over the weekends"`, "(-inf, 0.05]", 200,
		func(r *core.StudyReport) (float64, int) { return r.Schedule.WeekendShare, r.Schedule.Logins }},
	{"s55.lunch", "§5.5", "lunch dip", "a synchronized lunch break", "[0.5, inf)", 200,
		func(r *core.StudyReport) (float64, int) { return r.Schedule.LunchDip, r.Schedule.Logins }},
	{"s55.active-hours", "§5.5", "active hours", "a shift, not 24/7", "(-inf, 18]", 200,
		func(r *core.StudyReport) (float64, int) { return float64(r.Schedule.ActiveHours), r.Schedule.Logins }},

	// §5.4 doppelganger review.
	{"s54.doppelganger-precision", "§5.4", "flagged redirections precision", "(not stated)", "[0.9, inf)", 10,
		func(r *core.StudyReport) (float64, int) {
			return r.Doppelganger.Precision, r.Doppelganger.HijackerSettings
		}},
	{"s54.doppelganger-recall", "§5.4", "recall over hijacker settings", "(not stated)", "[0.5, inf)", 10,
		func(r *core.StudyReport) (float64, int) {
			return r.Doppelganger.Recall, r.Doppelganger.HijackerSettings
		}},
	{"s54.doppelganger-similarity", "§5.4", "similarity: hijacker vs owner", "(separation)", "(0, inf)", 10,
		func(r *core.StudyReport) (float64, int) {
			d := r.Doppelganger
			return d.MeanHijackerSim - d.MeanOwnerSim, d.HijackerSettings
		}},

	// The scam funnel.
	{"funnel.pleas", "funnel", "plea recipients", "(not stated)", "(0, inf)", 0,
		func(r *core.StudyReport) (float64, int) { return float64(r.Monetization.PleaRecipients), 0 }},
	{"funnel.replies", "funnel", "recipients who engaged", "(not stated)", "[0, inf)", 0,
		func(r *core.StudyReport) (float64, int) { return float64(r.Monetization.Replies), 0 }},
	// Measured as a share of the replies: no more replies reach the crew
	// than were sent.
	{"funnel.reached", "funnel", "replies that reached the crew", "(retention tactics)", "[0, 1]", 1,
		func(r *core.StudyReport) (float64, int) {
			m := r.Monetization
			return stats.Ratio(float64(m.ReachedCrew), float64(m.Replies)), m.Replies
		}},
	{"funnel.wires", "funnel", "completed wires", "(not stated)", "[0, inf)", 0,
		func(r *core.StudyReport) (float64, int) { return float64(r.Monetization.Payments), 0 }},
	{"funnel.revenue", "funnel", "revenue", "(FBI: significant)", "[0, inf)", 0,
		func(r *core.StudyReport) (float64, int) { return r.Monetization.Revenue, 0 }},

	// §8 defenses.
	{"s82.precision", "§8.2", "behavioral detector precision", "(not stated)", "[0.8, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Behavior.Precision, r.Behavior.HijackSessions }},
	{"s82.recall", "§8.2", "behavioral detector recall", "(not stated)", "[0.4, inf)", 1,
		func(r *core.StudyReport) (float64, int) { return r.Behavior.Recall, r.Behavior.HijackSessions }},
	{"s82.exposure", "§8.2", "mean exposure before flag", `"already too late"`, "(0, inf)", 1,
		func(r *core.StudyReport) (float64, int) {
			return r.Behavior.MeanExposure.Seconds(), r.Behavior.HijackSessions
		}},
	{"s81.sweep", "§8.1", "threshold steps where a challenged share rises", "a trade-off", "[0, 0]", 1,
		func(r *core.StudyReport) (float64, int) {
			rises := 0
			for i := 1; i < len(r.RiskSweep); i++ {
				prev, pt := r.RiskSweep[i-1], r.RiskSweep[i]
				if pt.HijackerCaught > prev.HijackerCaught+1e-9 || pt.OwnerChallenged > prev.OwnerChallenged+1e-9 {
					rises++
				}
			}
			return float64(rises), len(r.RiskSweep)
		}},
}

// row returns the ledger row id names; an unknown id is a bug.
func row(id string) claim {
	for _, c := range ledger {
		if c.id == id {
			return c
		}
	}
	panic("report: no ledger row " + id)
}

// paper is ledger row id's paper text.
func paper(id string) string { return row(id).paper }

// compare is ledger row id as a CompareTable row.
func compare(id, measured, note string) Compare {
	c := row(id)
	return Compare{c.artifact, c.metric, c.paper, measured, note}
}

func emailShare(k event.TargetKind) measure {
	return func(r *core.StudyReport) (float64, int) { return r.Table2.EmailShares[k], r.Table2.EmailN }
}

func pageShare(k event.TargetKind) measure {
	return func(r *core.StudyReport) (float64, int) { return r.Table2.PageShares[k], r.Table2.PageN }
}

func folderRate(f event.Folder) measure {
	return func(r *core.StudyReport) (float64, int) {
		return r.Assessment.FolderOpenRates[f], r.Assessment.Cases
	}
}

func methodRate(m event.RecoveryMethod) measure {
	return func(r *core.StudyReport) (float64, int) {
		ms := r.Fig10.Methods[m]
		return ms.Rate, ms.Attempts
	}
}

// lockouts is the number of cases a retention rate given lockout rests on.
func lockouts(ret analysis.Retention) int {
	return int(math.Round(ret.LockoutShare * float64(ret.Cases)))
}

// topHas counts how many of keys are among the first k entries.
func topHas(es []stats.Entry, k int, keys ...string) float64 {
	n := 0
	for _, e := range es[:min(k, len(es))] {
		for _, key := range keys {
			if e.Key == key {
				n++
			}
		}
	}
	return float64(n)
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
