// Command hijackstudy runs the full reproduction study — four
// observation-window worlds (Oct 2011, Nov 2012, Feb 2013, Jan 2014) plus
// a low-intensity base-rate world — and prints every table and figure of
// the paper with the published value alongside the measured one. Each
// world's analyses fold its records as the world appends them, so no log
// is read back, and a world without -spill-dir keeps none: its log only
// counts records.
//
// Usage:
//
//	hijackstudy [-seed N] [-scale F] [-par N] [-spill-dir d]
//	            [-archetypes smashgrab:3,stuffer:2]
//	            [-segment-records N] [-segment-gzip] [-spill-writers N]
//	            [-cpuprofile f] [-memprofile f] [-trace f]
//
// -archetypes fields playbook actors (internal/playbook) in every era
// world next to the era's manual-crew roster; the §8.1 block of the report
// then includes the per-archetype detection scorecard.
//
// -scale shrinks populations and phishing volume for quick runs (0.2 runs
// in well under a minute; 1.0 is the full study; values above 1 grow the
// worlds past the paper's scale for spill stress benchmarks — the report
// prints but its published-value comparisons only make sense at <= 1).
// -par bounds how many era worlds run, and are alive, at once (0 =
// GOMAXPROCS, 1 = one after another); the report is byte-identical for a
// fixed seed at any setting.
//
// -spill-dir also writes every era world's log as spill-to-disk segments
// (one subdirectory per era, 2011 2012 2013 2014 base), a dump of each
// world for `analyze -events <dir>/<era>`. The study does not read the
// segments, and the report stays byte-identical to the run without them.
// The dump costs time and memory: the writes hold a segment or two in
// RAM, which a run without -spill-dir does not. -spill-writers bounds
// each world's segment writes in flight, each encoding and writing one
// segment on a goroutine of its own, trading goroutines and RAM for
// wall-clock without touching report bytes. The footer reports the
// process's peak RSS either way, so the two modes are directly
// comparable.
//
// The profiling flags capture pprof CPU/heap profiles and a runtime trace
// of the whole run (study + report rendering) for `go tool pprof` /
// `go tool trace`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/playbook"
	"manualhijack/internal/profiling"
	"manualhijack/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 1.0, "study scale, > 0 (1 = the full study; above 1 grows the worlds)")
	par := flag.Int("par", 0, "study parallelism (0 = GOMAXPROCS, 1 = sequential)")
	archetypes := flag.String("archetypes", "",
		"playbook actor roster for every era world, e.g. smashgrab:3,stuffer:2 (known: "+strings.Join(playbook.Names(), ",")+")")
	spillDir := flag.String("spill-dir", "",
		"also dump every era world's log as spill-to-disk segments under this directory, one subdirectory per era, for analyze (identical report)")
	segRecords := flag.Int("segment-records", 0, "records per spilled segment (0 = logstore default)")
	segGzip := flag.Bool("segment-gzip", false, "gzip spilled segment files")
	spillWriters := flag.Int("spill-writers", 0, "segment writes in flight per world, each encoding and writing one segment on its own goroutine (0 = 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocs profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "hijackstudy: -scale must be > 0")
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintln(os.Stderr, "hijackstudy: -par must be >= 0")
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(1)
	}
	sc := core.DefaultStudyConfig(*seed)
	sc.Scale = *scale
	sc.Parallelism = *par
	sc.SpillDir = *spillDir
	sc.SegmentRecords = *segRecords
	sc.SpillGzip = *segGzip
	sc.SpillWriters = *spillWriters
	roster, err := playbook.ParseRoster(*archetypes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(2)
	}
	for _, entry := range roster {
		sc.Archetypes = append(sc.Archetypes, core.ArchetypeSpec{
			Archetype: entry.Archetype, Count: entry.Count,
		})
	}

	start := time.Now()
	r := core.RunStudy(sc)
	report.RenderStudy(os.Stdout, r)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(1)
	}
	effPar := *par
	if effPar == 0 {
		effPar = runtime.GOMAXPROCS(0)
	}
	mode := "monolithic"
	if *spillDir != "" {
		mode = "spill"
	}
	fmt.Printf("\nstudy completed in %s (seed=%d scale=%.2f parallelism=%d log=%s)\n",
		time.Since(start).Round(time.Millisecond), *seed, *scale, effPar, mode)
	if rss := profiling.PeakRSS(); rss > 0 {
		// Machine-parseable: scripts/bench.sh records this figure.
		fmt.Printf("peak-rss-mib: %d\n", rss/(1<<20))
	}
}
