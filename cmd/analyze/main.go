// Command analyze runs the measurement pipeline over a previously dumped
// event log (the NDJSON produced by `hijacksim -events`), so one
// simulation can be analyzed many times without re-running it — the same
// separation between log collection and map-reduce analysis the paper's
// methodology describes.
//
// The load seals the store (a dumped log is complete by construction), and
// the full analysis registry — the same list RunStudy iterates — fans out
// over a worker pool. Only analyses needing the live account directory
// are skipped.
//
// With -stream the dump is additionally replayed through the incremental
// streaming path (internal/stream) and the live-relevant analyses are
// checked for exact equality against the batch registry output — the
// parity gate that keeps the online and offline pipelines from drifting.
// A mismatch exits non-zero.
//
// -events also accepts a segment directory (the layout `hijacksim
// -spill-dir` produces, and each era subdirectory of `hijackstudy
// -spill-dir`): it is opened as a virtual store that pages
// segments through a small cache instead of decoding the whole log, so
// analysis RAM is bounded by the segment size. With -spill-dir a
// *monolithic* dump is first re-segmented into that directory and then
// analyzed the same bounded way — the one-time path from an existing big
// dump to bounded-RAM analysis.
//
// Usage:
//
//	hijacksim -pop 8000 -days 30 -decoys 100 -events world.ndjson.gz
//	analyze -events world.ndjson.gz [-skip-corrupt] [-par N] [-decode-shards N] [-stream]
//	        [-scan-workers N] [-spill-dir d [-segment-records N] [-segment-gzip]]
//
// -scan-workers sets how many segments the analysis scans decode ahead of
// the one being folded (report bytes are unaffected); the cache holds
// that many plus the segment being folded. After a segmented
// analysis the segment-cache counters (hits, decode misses, deduplicated
// prefetches, evictions) are printed, so scan-pattern regressions —
// thrash, dead prefetch — are visible from the CLI. The last line is the
// process's peak resident set size, `peak-rss-mib: N`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/core"
	"manualhijack/internal/logstore"
	"manualhijack/internal/profiling"
	"manualhijack/internal/report"
	"manualhijack/internal/stream"
)

func main() {
	eventsIn := flag.String("events", "", "NDJSON event log to analyze (required; .gz detected transparently)")
	skipCorrupt := flag.Bool("skip-corrupt", false,
		"skip malformed, truncated, or out-of-order lines instead of failing; every drop is reported")
	par := flag.Int("par", 0, "analysis worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	shards := flag.Int("decode-shards", 0, "parallel NDJSON decode shards (0 = GOMAXPROCS, 1 = sequential)")
	streaming := flag.Bool("stream", false,
		"also replay the dump through the incremental streaming analyses and verify they match the batch output exactly")
	scanWorkers := flag.Int("scan-workers", 0,
		"segments decoded ahead during analysis scans over a segment directory (0 = 1)")
	spillDir := flag.String("spill-dir", "",
		"re-segment a monolithic dump into this directory first, then analyze the segments with bounded RAM")
	segRecords := flag.Int("segment-records", 0, "records per segment when re-segmenting (0 = logstore default)")
	segGzip := flag.Bool("segment-gzip", false, "gzip segment files when re-segmenting")
	flag.Parse()
	if *eventsIn == "" {
		fmt.Fprintln(os.Stderr, "analyze: -events is required")
		os.Exit(2)
	}

	opts := logstore.ReadOptions{
		SkipCorrupt: *skipCorrupt,
		Shards:      *shards,
		ScanWorkers: *scanWorkers,
	}
	start := time.Now()
	var s *logstore.Store
	var st *logstore.ReadStats
	var err error
	if *spillDir != "" {
		s, st, err = logstore.ResegmentNDJSONFile(*eventsIn, logstore.SpillConfig{
			Dir:            *spillDir,
			SegmentRecords: *segRecords,
			ScanWorkers:    *scanWorkers,
			Compress:       *segGzip,
		}, opts)
	} else {
		s, st, err = logstore.ReadNDJSONFile(*eventsIn, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		if !*skipCorrupt {
			fmt.Fprintln(os.Stderr, "analyze: (re-run with -skip-corrupt to drop bad lines and keep going)")
		}
		os.Exit(1)
	}
	if st.Segments > 0 {
		fmt.Printf("loaded %d records from %s in %s (%d segment(s), cache-bounded reads)\n",
			st.Records, *eventsIn, time.Since(start).Round(time.Millisecond), st.Segments)
	} else {
		fmt.Printf("loaded %d records from %s in %s (sealed)\n",
			st.Records, *eventsIn, time.Since(start).Round(time.Millisecond))
	}
	if st.Legacy {
		fmt.Println("note: headerless legacy dump — observation window estimated from record timestamps")
	}
	if st.Dropped > 0 {
		fmt.Printf("warning: dropped %d malformed line(s)\n", st.Dropped)
	}
	if st.OutOfOrder > 0 {
		fmt.Printf("warning: dropped %d out-of-order record(s)\n", st.OutOfOrder)
	}
	if st.Missing > 0 {
		fmt.Printf("warning: dump truncated — header declares %d more record(s) than the file holds\n", st.Missing)
	}
	if st.Truncated {
		fmt.Println("warning: input ended mid-stream; analyzed the intact prefix")
	}
	if st.SegmentsDropped > 0 {
		fmt.Printf("warning: dropped %d corrupt segment(s) whole — time-windowed aggregates cover the surviving segments only\n",
			st.SegmentsDropped)
	}
	if st.ManifestIgnored != "" {
		fmt.Printf("warning: ignored %s (%s) — listed the directory instead; observation window estimated from record timestamps\n",
			logstore.ManifestName, st.ManifestIgnored)
	}
	fmt.Println()

	// Log overview: a segmented store answers from its manifest.
	kinds := s.KindCounts()
	rows := [][]string{}
	for _, k := range s.SortedKinds() {
		rows = append(rows, []string{string(k), fmt.Sprintf("%d", kinds[k])})
	}
	report.Table(os.Stdout, "records by kind", []string{"kind", "count"}, rows)
	fmt.Println()

	// The observation window: from the dump header when present, else the
	// decoded records' time range (legacy dumps).
	winStart, winEnd := st.Meta.Start, st.Meta.End
	if winStart.IsZero() {
		winStart = st.First
	}
	if winEnd.IsZero() {
		winEnd = st.Last.Add(time.Second)
	}

	r, skipped := core.RunAnalyses(core.AnalysisInput{
		Log:   s,
		Start: winStart,
		End:   winEnd,
		Plan:  core.DefaultIPPlan(),
	}, *par)

	// The lifecycle funnel headline (also the CI smoke target).
	lc := r.Lifecycle
	fmt.Printf("lifecycle: %d lures → %d creds → %d entered → %d exploited → %d claims → %d recovered\n\n",
		lc.LuresDelivered, lc.CredentialsCaptured, lc.AccountsEntered,
		lc.AccountsExploited, lc.ClaimsFiled, lc.AccountsRecovered)

	// Per-archetype detection scorecard, one machine-parseable line per
	// archetype (empty when the dump carries no tagged actors). CI diffs
	// these lines against the streaming replay's verbatim.
	printScorecard("archetype-scorecard", r.ArchetypeScorecard)
	if len(r.ArchetypeScorecard.Rows) > 0 {
		fmt.Println()
	}

	if s.Segmented() {
		// Machine-parseable: CI and bench.sh read this line.
		cs := s.SegmentCacheStats()
		fmt.Printf("segment-cache: hits=%d misses=%d prefetch-deduped=%d evictions=%d\n\n",
			cs.Hits, cs.Misses, cs.PrefetchDeduped, cs.Evictions)
	}

	if *streaming {
		if !runStreamParity(s, r) {
			os.Exit(1)
		}
		fmt.Println()
	}

	report.RenderOffline(os.Stdout, r, *eventsIn, skipped)
	if rss := profiling.PeakRSS(); rss > 0 {
		// Machine-parseable, as hijackstudy prints it.
		fmt.Printf("\npeak-rss-mib: %d\n", rss/(1<<20))
	}
}

// runStreamParity replays the sealed store through the streaming bus and
// compares the incremental results against the batch registry's. It
// reports whether they match exactly.
func runStreamParity(s *logstore.Store, r *core.StudyReport) bool {
	start := time.Now()
	bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
	n := bus.Replay(s)
	snap := bus.Snapshot()
	if diffs := stream.AnalysisDiff(snap, stream.FromStudy(r)); len(diffs) > 0 {
		fmt.Printf("streaming parity FAILED: %v differ between the incremental and batch paths\n", diffs)
		return false
	}
	fmt.Printf("streaming parity ok: %d events replayed in %s, incremental == batch for %s\n",
		n, time.Since(start).Round(time.Millisecond), strings.Join(stream.Live(), ", "))
	slc := snap.Lifecycle
	fmt.Printf("streaming lifecycle: %d lures → %d creds → %d entered → %d exploited → %d claims → %d recovered\n",
		slc.LuresDelivered, slc.CredentialsCaptured, slc.AccountsEntered,
		slc.AccountsExploited, slc.ClaimsFiled, slc.AccountsRecovered)
	printScorecard("streaming archetype-scorecard", snap.Scorecard)
	return true
}

// printScorecard emits one line per archetype row plus an owner
// false-positive-cost line, all carrying the given prefix. The batch and
// streaming paths share this formatter so CI can diff their output
// verbatim.
func printScorecard(prefix string, sc analysis.ArchetypeScorecard) {
	for _, row := range sc.Rows {
		fmt.Printf("%s: %s accounts=%d attempts=%d logins=%d challenged=%d blocked=%d detected=%d recall=%.3f median-ttd=%s\n",
			prefix, row.Archetype, row.Accounts, row.Attempts, row.Logins,
			row.Challenged, row.Blocked, row.Detected, row.Recall, row.MedianTTD)
	}
	if len(sc.Rows) > 0 {
		fmt.Printf("%s: owner-cost logins=%d challenged=%d blocked=%d challenged-share=%.4f blocked-share=%.4f\n",
			prefix, sc.OwnerLogins, sc.OwnerChallenged, sc.OwnerBlocked,
			sc.OwnerChallengedShare, sc.OwnerBlockedShare)
	}
}
