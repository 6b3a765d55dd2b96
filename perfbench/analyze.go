package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/report"
)

// Analyze sizes. The workload's reference world (pop 20000, 30 days,
// 1.46 M records) takes about 11 s to simulate on the 2-core reference
// host; pop 2000 keeps three set-ups within a run's budget.
// analyzeSegRecords cuts its log into about ten segments, so that the
// segment pass decodes ahead, folds shards and merges them.
const (
	analyzePop        = 2000
	analyzeMiniPop    = 500
	analyzeDays       = 30
	analyzeSegRecords = 16384
)

// analyzeInputs is the analyze workload's set-up: the world, kept in a
// traced run for the registry folds over its live directory, and its two
// dumps.
type analyzeInputs struct {
	w              *core.World
	dir            string
	ndjson, segDir string
}

// analyze runs the offline pipeline of cmd/analyze over one world dumped
// twice in set-up: as NDJSON, and as a segment directory. A unit loads,
// analyzes and renders each; the two reports must be DeepEqual, and the
// rendering equal to the run's first.
func (b *bench) analyze(d time.Duration) (map[string]float64, error) {
	pop := analyzePop
	if b.mini {
		pop = analyzeMiniPop
	}
	var in analyzeInputs
	var setup []float64
	var sum0 [sha256.Size]byte
	for i := 0; i < b.setups(setupReps); i++ {
		t0 := time.Now()
		next, err := b.analyzeSetup(pop, filepath.Join(b.dir, fmt.Sprintf("analyze-%d", i)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		sum, err := fileSum(next.ndjson)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sum0 = sum
		} else {
			b.op(sum == sum0, "analyze: set-up %d wrote a different dump for the same seed", i)
			if err := os.RemoveAll(in.dir); err != nil {
				return nil, err
			}
		}
		in = next
	}

	var want []byte
	p, err := b.measure("analyze.unit", d, nil, func(parent int) error {
		t0 := time.Now()
		r1, skip1, out1, err := b.analyzePass(parent, in, false)
		if err != nil {
			return err
		}
		t1 := time.Now()
		r2, skip2, _, err := b.analyzePass(parent, in, true)
		if err != nil {
			return err
		}
		b.add("analyze.ndjson_s", t1.Sub(t0).Seconds())
		b.add("analyze.segments_s", time.Since(t1).Seconds())
		if want == nil {
			want = out1
		}
		b.op(reflect.DeepEqual(r1, r2) && slices.Equal(skip1, skip2) && bytes.Equal(out1, want),
			"analyze: the NDJSON and segment reports differ, or differ from the run's first")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.analyzeProbes(in); err != nil {
			return nil, err
		}
	}
	fmt.Printf("analyze.ndjson_s %.6f s, analyze.segments_s %.6f s (medians over %d units)\n",
		median(b.vals["analyze.ndjson_s"]), median(b.vals["analyze.segments_s"]), len(b.vals["analyze.ndjson_s"]))
	return b.finish("analyze.unit", setup, p), nil
}

// analyzeSetup simulates the world and dumps it as NDJSON, as
// cmd/hijacksim -events does, then re-segments the dump, as cmd/analyze
// -spill-dir does.
func (b *bench) analyzeSetup(pop int, dir string) (analyzeInputs, error) {
	in := analyzeInputs{dir: dir, ndjson: filepath.Join(dir, "world.ndjson"), segDir: filepath.Join(dir, "segments")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return in, err
	}
	in.w = b.simulate(pop, analyzeDays)
	meta := logstore.Meta{Start: in.w.Cfg.Start, End: in.w.End(), Seed: b.seed}
	var err error
	b.tr.do("logstore.write_ndjson", 0, func(int) { err = logstore.WriteNDJSONFile(in.ndjson, in.w.Log, meta) })
	if err != nil {
		return in, err
	}
	var seg *logstore.Store
	b.tr.do("logstore.resegment", 0, func(int) {
		seg, _, err = logstore.ResegmentNDJSONFile(in.ndjson, logstore.SpillConfig{
			Dir:            in.segDir,
			SegmentRecords: analyzeSegRecords,
			Writers:        workers,
			ScanWorkers:    workers,
		}, logstore.ReadOptions{Shards: workers})
	})
	if err != nil {
		return in, err
	}
	if b.tr != nil {
		fi, err := os.Stat(in.ndjson)
		if err != nil {
			return in, err
		}
		segMiB, err := dirMiB(in.segDir)
		if err != nil {
			return in, err
		}
		b.add("logstore.ndjson_mib", float64(fi.Size())/(1<<20))
		b.add("logstore.segment_mib", segMiB)
		b.add("logstore.segments", float64(seg.SegmentCount()))
	} else {
		// Only the traced probes fold over the live world; dropping it
		// keeps the set-up's memory out of the units' peak RSS.
		in.w = nil
	}
	return in, nil
}

// analyzePass is one half of a unit: load a dump (the NDJSON file, or the
// segment directory), run the registry over it and render the offline
// report, as cmd/analyze does.
func (b *bench) analyzePass(parent int, in analyzeInputs, segments bool) (*core.StudyReport, []string, []byte, error) {
	read, run := "logstore.read_ndjson", "core.run_analyses_ndjson"
	if segments {
		read, run = "logstore.open_segments", "core.run_analyses_segments"
	}
	opts := logstore.ReadOptions{Shards: workers, ScanWorkers: workers}
	var s *logstore.Store
	var st *logstore.ReadStats
	var err error
	b.tr.do(read, parent, func(int) {
		if segments {
			s, st, err = logstore.OpenSegmentDir(in.segDir, opts)
		} else {
			s, st, err = logstore.ReadNDJSONFile(in.ndjson, opts)
		}
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var r *core.StudyReport
	var skipped []string
	b.tr.do(run, parent, func(int) { r, skipped = core.RunAnalyses(offlineInput(s, st), workers) })
	var out bytes.Buffer
	b.tr.do("report.render_offline", parent, func(int) { report.RenderOffline(&out, r, "world", skipped) })
	if segments && b.tr != nil {
		cs := s.SegmentCacheStats()
		b.add("logstore.cache_hits", float64(cs.Hits))
		b.add("logstore.cache_misses", float64(cs.Misses))
		b.add("logstore.prefetch_deduped", float64(cs.PrefetchDeduped))
		b.add("logstore.cache_evictions", float64(cs.Evictions))
		b.add("logstore.cache_hit_ratio", float64(cs.Hits)/float64(max(cs.Hits+cs.Misses, 1)))
	}
	return r, skipped, out.Bytes(), nil
}

// offlineInput is the registry input cmd/analyze builds for a loaded dump.
func offlineInput(s *logstore.Store, st *logstore.ReadStats) core.AnalysisInput {
	return core.AnalysisInput{Log: s, Start: st.Meta.Start, End: st.Meta.End, Plan: core.DefaultIPPlan()}
}

// analyzeProbes times what a unit does not isolate: a bare scan of each
// store, each registry entry's fold over the live world, and the shard
// merges of the segmented runner.
func (b *bench) analyzeProbes(in analyzeInputs) error {
	opts := logstore.ReadOptions{Shards: workers, ScanWorkers: workers}
	mono, _, err := logstore.ReadNDJSONFile(in.ndjson, opts)
	if err != nil {
		return err
	}
	b.tr.do("logstore.scan", 0, func(int) { mono.Scan(func(event.Event) {}) })
	seg, _, err := logstore.OpenSegmentDir(in.segDir, opts)
	if err != nil {
		return err
	}
	b.tr.do("logstore.scan_segments", 0, func(int) { seg.ScanSegments(func(int, []event.Event) {}) })

	live := core.AnalysisInput{Log: in.w.Log, Start: in.w.Cfg.Start, End: in.w.End(), Plan: in.w.Plan, Dir: in.w.Dir, Scale: 1}
	for _, a := range core.Registry() {
		b.tr.do("analysis."+a.Name+".fold", 0, func(int) {
			sa := a.Stream(live)
			live.Log.Scan(sa.Observe)
			sa.Finalize(&core.StudyReport{})
		})
	}
	segmented := live
	segmented.Log = seg
	b.add("core.merge_s", mergeSeconds(segmented))
	return nil
}

// mergeSeconds folds every mergeable registry entry as one shard per
// segment, as the segmented runner does, and returns the time spent in
// MergeableAnalysis.Merge alone.
func mergeSeconds(in core.AnalysisInput) float64 {
	var roots []core.MergeableAnalysis
	for _, a := range core.Registry() {
		if m, ok := a.Stream(in).(core.MergeableAnalysis); ok {
			roots = append(roots, m)
		}
	}
	var merging time.Duration
	in.Log.ScanSegments(func(_ int, events []event.Event) {
		for _, root := range roots {
			shard := root.NewShard()
			for _, e := range events {
				shard.Observe(e)
			}
			t0 := time.Now()
			root.Merge(shard)
			merging += time.Since(t0)
		}
	})
	return merging.Seconds()
}

func fileSum(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// dirMiB is the size of the regular files in dir, in MiB.
func dirMiB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return float64(n) / (1 << 20), nil
}
