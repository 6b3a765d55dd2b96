// Officehours: reproduce §5.5's "Manual Hijacking — an Ordinary Office
// Job?" evidence and follow the money. Prints the hijacker activity
// clock (work hours, synchronized lunch, idle weekends), the doppelganger
// fingerprints, and the scam funnel from pleas to wire transfers.
package main

import (
	"fmt"
	"os"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/report"
)

func main() {
	cfg := core.DefaultConfig(5)
	cfg.PopulationN = 4000
	cfg.Days = 21
	cfg.CampaignsPerDay = 10
	w := core.NewWorld(cfg)
	w.Run()

	// The office-job fingerprint.
	ws := analysis.Fold(w.Log, analysis.NewWorkScheduleBuilder()).WorkSchedule()
	hours := make([]int, 24)
	for h, share := range ws.HourlyShare {
		hours[h] = int(share * 1000)
	}
	report.Series(os.Stdout, "hijacker logins by UTC hour (each cell = 1 hour)", hours)
	fmt.Printf("weekend activity: %s of logins (a 24/7 botnet would show 28.6%%)\n", report.Pct(ws.WeekendShare))
	fmt.Printf("synchronized lunch dip: %s; active hours: %d; n=%d logins\n\n",
		report.Pct(ws.LunchDip), ws.ActiveHours, ws.Logins)

	// Doppelganger fingerprints among redirection settings.
	d := analysis.Fold(w.Log, analysis.NewDoppelgangerBuilder(w.Dir, 0.75)).DoppelgangerEval()
	fmt.Printf("doppelganger review: %d hijacker redirections, flagged with precision %s / recall %s\n",
		d.HijackerSettings, report.Pct(d.Precision), report.Pct(d.Recall))
	for i, f := range d.Findings {
		if i >= 3 {
			break
		}
		victim := w.Dir.Get(f.Account)
		fmt.Printf("  e.g. %s → %s (similarity %.2f, via %s)\n",
			victim.Addr, f.Addr, f.Similarity, f.Kind)
	}
	fmt.Println()

	// The money.
	m := analysis.Fold(w.Log, analysis.NewMonetizationBuilder()).Monetization()
	fmt.Printf("scam funnel: %d plea recipients → %d engaged → %d reached the crew → %d wires\n",
		m.PleaRecipients, m.Replies, m.ReachedCrew, m.Payments)
	fmt.Printf("revenue: $%.0f total, $%.0f per exploited hijack, $%.0f mean wire\n",
		m.Revenue, m.RevenuePerHijack, m.MeanPayment)
	if by := analysis.RevenueByCrew(w.Log); len(by) > 0 {
		fmt.Println("revenue by crew:")
		for _, e := range by {
			fmt.Printf("  %-12s $%d\n", e.Key, e.Count)
		}
	}
}
