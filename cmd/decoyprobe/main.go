// Command decoyprobe re-runs the paper's Dataset 4 experiment standalone:
// inject decoy credentials into live phishing pages and measure how fast
// hijacker crews access the accounts (Figure 7: 20% within 30 minutes,
// 50% within 7 hours).
//
// Usage:
//
//	decoyprobe [-seed N] [-decoys N] [-days N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	decoys := flag.Int("decoys", 200, "decoy credentials to inject")
	days := flag.Int("days", 21, "window length in days")
	flag.Parse()

	cfg := core.DefaultConfig(*seed)
	cfg.Days = *days
	cfg.DecoyN = *decoys
	w := core.NewWorld(cfg)
	w.InjectDecoys(time.Duration(*days-7) * 24 * time.Hour)
	w.Run()

	fig := analysis.Fold(w.Log, analysis.NewFigure7Builder()).Figure7()
	report.CompareTable(os.Stdout, "Figure 7 — speed of compromised account access", []report.Compare{
		{Artifact: "F7", Metric: "decoys submitted", Paper: "200", Measured: fmt.Sprintf("%d", fig.Submitted)},
		{Artifact: "F7", Metric: "accessed", Paper: "most (not all)", Measured: report.Pct(fig.AccessedShare)},
		{Artifact: "F7", Metric: "within 30 min", Paper: "20%", Measured: report.Pct(fig.Within30Min)},
		{Artifact: "F7", Metric: "within 7 h", Paper: "50%", Measured: report.Pct(fig.Within7Hours)},
	})
	if fig.Accessed > 0 {
		fmt.Printf("\naccess delay percentiles (hours): p25=%.1f p50=%.1f p75=%.1f p90=%.1f\n",
			fig.Delays.Percentile(25), fig.Delays.Percentile(50),
			fig.Delays.Percentile(75), fig.Delays.Percentile(90))
	}
}
