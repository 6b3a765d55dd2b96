// Detection: wire the login-time risk analyzer and the post-login
// behavioral detector, then sweep the risk threshold to expose the §8.1
// trade-off the paper describes — challenging more hijackers means
// challenging more legitimate users.
package main

import (
	"os"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/core"
	"manualhijack/internal/report"
)

func main() {
	cfg := core.DefaultConfig(7)
	cfg.PopulationN = 4000
	cfg.Days = 21
	w := core.NewWorld(cfg)
	w.Run()

	// Counterfactual threshold sweep over the logged risk scores.
	sweep := analysis.Fold(w.Log, analysis.NewRiskSweepBuilder(
		[]float64{0.2, 0.3, 0.4, 0.5, 0.58, 0.62, 0.7, 0.8, 0.9})).Sweep()
	rows := [][]string{}
	for _, pt := range sweep {
		rows = append(rows, []string{
			report.F(pt.Threshold),
			report.Pct(pt.HijackerCaught),
			report.Pct2(pt.OwnerChallenged),
		})
	}
	report.Table(os.Stdout,
		"login-risk threshold sweep — hijackers caught vs owners inconvenienced (§8.1)",
		[]string{"threshold", "hijackers challenged", "owners challenged"}, rows)

	// The post-login behavioral detector, replayed over the same logs at
	// two operating points: fire-fast vs fire-accurately.
	println()
	configs := map[string]behavior.Config{
		"default":      behavior.DefaultConfig(),
		"2-min window": windowed(behavior.DefaultConfig(), 2*time.Minute),
	}
	brows := [][]string{}
	for name, bc := range configs {
		ev := analysis.Fold(w.Log, analysis.NewBehaviorEvalBuilder(bc)).DetectionEval()
		brows = append(brows, []string{
			name,
			report.Pct(ev.Precision),
			report.Pct(ev.Recall),
			ev.MeanExposure.Round(time.Second).String(),
		})
	}
	report.Table(os.Stdout,
		"behavioral detector (§5.2 proposal; §8.2: it fires after exposure)",
		[]string{"config", "precision", "recall", "mean exposure"}, brows)
}

func windowed(c behavior.Config, w time.Duration) behavior.Config {
	c.Window = w
	return c
}
