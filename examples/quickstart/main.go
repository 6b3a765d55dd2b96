// Quickstart: build a small world, run one observation window, and print
// the headline numbers — how many accounts were manually hijacked, what
// the hijackers did, and how recovery went.
package main

import (
	"fmt"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
)

func main() {
	cfg := core.DefaultConfig(42)
	cfg.PopulationN = 3000
	cfg.Days = 14

	w := core.NewWorld(cfg)
	start := time.Now()
	w.Run()
	fmt.Printf("simulated %d days over %d accounts in %s (%d log records)\n\n",
		cfg.Days, cfg.PopulationN, time.Since(start).Round(time.Millisecond), w.Log.Len())

	hijacks := logstore.Select[event.HijackStarted](w.Log)
	assessed := logstore.Select[event.HijackAssessed](w.Log)
	exploited := 0
	var totalAssess time.Duration
	for _, a := range assessed {
		totalAssess += a.Duration
		if a.Exploited {
			exploited++
		}
	}
	fmt.Printf("manual hijacks: %d (exploited %d, abandoned %d)\n",
		len(hijacks), exploited, len(assessed)-exploited)
	if len(assessed) > 0 {
		fmt.Printf("mean value-assessment time: %s (paper: ~3 minutes)\n",
			(totalAssess / time.Duration(len(assessed))).Round(time.Second))
	}

	scams, phish := 0, 0
	for _, m := range logstore.Select[event.MessageSent](w.Log) {
		if m.Actor != event.ActorHijacker {
			continue
		}
		switch m.Class {
		case event.ClassScam:
			scams++
		case event.ClassPhish:
			phish++
		}
	}
	fmt.Printf("hijacker mail from victim accounts: %d scams, %d phishing blasts\n", scams, phish)

	claims := logstore.Select[event.ClaimResolved](w.Log)
	ok := 0
	for _, c := range claims {
		if c.Success {
			ok++
		}
	}
	fmt.Printf("recovery claims resolved: %d (%d successful)\n", len(claims), ok)

	fig8 := analysis.Fold(w.Log, analysis.NewFigure8Builder()).Figure8()
	fmt.Printf("hijacker IP discipline: %.1f distinct accounts per IP-day (cap 10, paper ~9.6)\n",
		fig8.MeanAccountsPerIPDay)
}
