// Phishingcampaign: launch phishing campaigns against a population, watch
// the anti-phishing pipeline detect and take the pages down, and print the
// §4.2 conversion statistics (success rates, referrers, victim TLDs).
package main

import (
	"fmt"
	"os"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/report"
)

func main() {
	cfg := core.DefaultConfig(3)
	cfg.PopulationN = 2000
	cfg.Days = 21
	cfg.CampaignsPerDay = 8
	cfg.FormsShare = 0.5 // host more pages on the Forms product (Dataset 3)
	cfg.OutlierShare = 0.05
	w := core.NewWorld(cfg)
	w.Run()

	created := logstore.Select[event.PageCreated](w.Log)
	detected := logstore.Select[event.PageDetected](w.Log)
	taken := logstore.Select[event.PageTakedown](w.Log)
	fmt.Printf("pages hosted: %d; detected: %d; taken down: %d\n",
		len(created), len(detected), len(taken))

	// Page lifetime distribution.
	createdAt := map[event.PageID]time.Time{}
	for _, c := range created {
		createdAt[c.Page] = c.When()
	}
	var lifetimes []string
	var sum time.Duration
	for _, d := range detected {
		sum += d.When().Sub(createdAt[d.Page])
	}
	if len(detected) > 0 {
		lifetimes = append(lifetimes,
			fmt.Sprintf("mean page lifetime before detection: %s",
				(sum/time.Duration(len(detected))).Round(time.Minute)))
	}
	for _, l := range lifetimes {
		fmt.Println(l)
	}
	fmt.Println()

	fig5 := analysis.Fold(w.Log, analysis.NewFigure5Builder()).Figure5(100, 20)
	report.CompareTable(os.Stdout, "submission success rates (Figure 5)", []report.Compare{
		{Artifact: "F5", Metric: "mean POST/GET", Paper: "13.78%", Measured: report.Pct(fig5.Mean),
			Note: fmt.Sprintf("%d Forms pages", len(fig5.PerPage))},
		{Artifact: "F5", Metric: "range", Paper: "3%–45%",
			Measured: report.Pct(fig5.Min) + "–" + report.Pct(fig5.Max)},
	})
	fmt.Println()

	fig3 := analysis.Fold(w.Log, analysis.NewFigure3Builder()).Figure3(100)
	fmt.Printf("blank HTTP referrers: %s of %d GETs (paper >99%%)\n",
		report.Pct2(fig3.BlankShare), fig3.TotalGETs)
	report.Bars(os.Stdout, "non-blank referrers (Figure 3)", fig3.NonBlank, 8)
	fmt.Println()

	fig4 := analysis.Fold(w.Log, analysis.NewFigure4Builder()).Figure4(100)
	report.Bars(os.Stdout, "phished address TLDs (Figure 4)", fig4.Shares, 10)
}
