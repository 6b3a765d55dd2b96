// Command hijacksim runs a single simulated world — population, phishing
// campaigns, hijacker crews, defenses — and prints the raw event-log
// statistics plus per-crew activity. With -events it also dumps the whole
// log as NDJSON for external analysis.
//
// Usage:
//
//	hijacksim [-seed N] [-pop N] [-days N] [-decoys N] [-events file.ndjson]
//	          [-archetypes smashgrab:3,stuffer:2]
//	          [-spill-dir d] [-segment-records N] [-segment-gzip]
//	          [-spill-writers N]
//	          [-cpuprofile f] [-memprofile f] [-trace f]
//
// -archetypes fields playbook actors (internal/playbook) next to the
// manual crews: a comma-separated roster of archetype:count pairs (a bare
// name means one instance). Their events carry the archetype tag, which
// `analyze` turns into the per-archetype detection scorecard.
//
// -spill-dir builds the log as spill-to-disk segments: peak RAM is
// bounded by the segment size instead of the world size, and the segment
// directory itself is the dump — `analyze -events <dir>` opens it as a
// virtual store, no separate -events pass needed. -spill-writers bounds
// the segment writes in flight: each sealed segment is encoded and
// written on a goroutine of its own, off the simulation hot path.
//
// The profiling flags capture pprof CPU/heap profiles and a runtime trace
// of the whole run for `go tool pprof` / `go tool trace` — the world
// simulation is the study's hot path, and this binary is the smallest
// harness that drives it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/logstore"
	"manualhijack/internal/playbook"
	"manualhijack/internal/profiling"
	"manualhijack/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	pop := flag.Int("pop", 8000, "population size")
	days := flag.Int("days", 30, "window length in days")
	decoys := flag.Int("decoys", 0, "decoy accounts to inject")
	archetypes := flag.String("archetypes", "",
		"playbook actor roster, e.g. smashgrab:3,stuffer:2 (known: "+strings.Join(playbook.Names(), ",")+")")
	eventsOut := flag.String("events", "", "write the event log as NDJSON to this file (a .gz suffix gzip-compresses)")
	spillDir := flag.String("spill-dir", "",
		"build the log as spill-to-disk segments in this directory (bounded RAM; the directory is the dump)")
	segRecords := flag.Int("segment-records", 0, "records per spilled segment (0 = logstore default)")
	segGzip := flag.Bool("segment-gzip", false, "gzip spilled segment files")
	spillWriters := flag.Int("spill-writers", 0, "segment writes in flight, each encoding and writing one segment on its own goroutine (0 = 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocs profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijacksim: %v\n", err)
		os.Exit(1)
	}

	cfg := core.DefaultConfig(*seed)
	cfg.PopulationN = *pop
	cfg.Days = *days
	cfg.DecoyN = *decoys
	roster, err := playbook.ParseRoster(*archetypes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijacksim: %v\n", err)
		os.Exit(2)
	}
	for _, entry := range roster {
		cfg.Archetypes = append(cfg.Archetypes, core.ArchetypeSpec{
			Archetype: entry.Archetype, Count: entry.Count,
		})
	}
	if *spillDir != "" {
		cfg.Spill = logstore.SpillConfig{
			Dir:            *spillDir,
			SegmentRecords: *segRecords,
			Compress:       *segGzip,
			Writers:        *spillWriters,
		}
	}

	w := core.NewWorld(cfg)
	if *decoys > 0 {
		w.InjectDecoys(time.Duration(*days) * 16 * time.Hour)
	}
	start := time.Now()
	w.Run()
	elapsed := time.Since(start)

	kinds := w.Log.KindCounts()
	rows := make([][]string, 0, len(kinds))
	for _, k := range w.Log.SortedKinds() {
		rows = append(rows, []string{string(k), fmt.Sprintf("%d", kinds[k])})
	}
	report.Table(os.Stdout, fmt.Sprintf("event log (%d records, simulated %dd in %s)",
		w.Log.Len(), *days, elapsed.Round(time.Millisecond)),
		[]string{"kind", "count"}, rows)

	crewRows := [][]string{}
	for _, c := range w.Crews {
		crewRows = append(crewRows, []string{
			c.Name(), string(c.Country()),
			fmt.Sprintf("%d", c.Processed), fmt.Sprintf("%d", c.LoggedIn),
			fmt.Sprintf("%d", c.Exploited), fmt.Sprintf("%d", c.Abandoned),
			fmt.Sprintf("%d", c.LockedOut), fmt.Sprintf("%d", c.PhoneLocks),
		})
	}
	fmt.Println()
	report.Table(os.Stdout, "crews",
		[]string{"crew", "cc", "processed", "in", "exploited", "abandoned", "locked", "2sv"},
		crewRows)

	if len(w.Actors) > 0 {
		actorRows := [][]string{}
		for _, a := range w.Actors {
			processed, loggedIn, exploited := 0, 0, 0
			if sp, ok := a.(playbook.StatsProvider); ok {
				processed, loggedIn, exploited = sp.ActorStats()
			}
			actorRows = append(actorRows, []string{
				a.Name(), a.Archetype(), string(a.Country()),
				fmt.Sprintf("%d", processed), fmt.Sprintf("%d", loggedIn),
				fmt.Sprintf("%d", exploited),
			})
		}
		fmt.Println()
		report.Table(os.Stdout, "playbook actors",
			[]string{"actor", "archetype", "cc", "processed", "in", "exploited"},
			actorRows)
	}

	if *spillDir != "" {
		fmt.Printf("\nspilled %d segment(s) to %s (analyze -events %s reads them directly)\n",
			w.Log.SegmentCount(), *spillDir, *spillDir)
	}
	if *eventsOut != "" {
		// WriteNDJSONFile checks the file's Close error: a full disk or
		// write-behind failure must not report a truncated dump as success.
		meta := logstore.Meta{Start: w.Cfg.Start, End: w.End(), Seed: *seed}
		if err := logstore.WriteNDJSONFile(*eventsOut, w.Log, meta); err != nil {
			fmt.Fprintf(os.Stderr, "hijacksim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d events to %s\n", w.Log.Len(), *eventsOut)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "hijacksim: %v\n", err)
		os.Exit(1)
	}
}
