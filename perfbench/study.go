package main

import (
	"bytes"
	"os"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/report"
)

// Study sizes. Scale 0.2 takes 7–10 s and 1.2 GiB per study on the 2-core
// reference host; at 0.03 a study takes about a second, so a run times
// several and reports their median. Era populations have a floor of 500
// accounts, so below 0.03 a study hardly shrinks. studySegRecords cuts
// each era's log into several segments at this scale, so that
// study-spill writes, shards and merges as a full-size spilled study does.
const (
	studyScale      = 0.03
	studySegRecords = 8192
)

// studySeeds is how many study seeds a run cycles through, all derived
// from --seed. Phishing campaigns arrive as a Poisson process, so at this
// scale one seed's study can take 15% more CPU than another's; a median
// over units of several seeds moves less from one --seed to the next
// than a single seed's does.
const studySeeds = 4

// The study's set-up is a warm-up: one small world simulated before the
// timed phase, so that the first unit does not start on a cold heap. An
// untraced run repeats it warmReps times, so that setup_s is a median. A
// warm-up of 1000 accounts over 7 days took about 0.13 s, and the median
// of nine moved by over a quarter from run to run; this size takes about
// 0.4 s.
const (
	warmPop  = 2000
	warmDays = 10
	warmReps = 5
)

// study runs the hijackstudy job: core.RunStudy, then report.RenderStudy
// into a buffer; spill selects the spill-to-disk segmented log. Unit i
// studies seed i mod studySeeds, or, in a traced run, the seed of its
// untraced/traced pair, so that the tracing overhead compares like with
// like. Every unit must render the bytes the first unit of its seed did,
// and after the timed phase a study of the first seed on the other log
// must render them too.
func (b *bench) study(d time.Duration, spill bool) (map[string]float64, error) {
	var setup []float64
	for i := 0; i < b.setups(warmReps); i++ {
		t0 := time.Now()
		b.simulate(warmPop, warmDays)
		setup = append(setup, time.Since(t0).Seconds())
	}
	traced := b.tr != nil
	want := make(map[int64][]byte)
	units := 0
	p, err := b.measure("study.unit", d, nil, func(parent int) error {
		k := units % studySeeds
		if traced {
			k = units / 2 % studySeeds
		}
		units++
		seed := b.studySeed(k)
		got, err := b.studyOnce(parent, seed, spill)
		if err != nil {
			return err
		}
		if want[seed] == nil {
			want[seed] = got
		}
		b.op(bytes.Equal(got, want[seed]), "study: seed %d rendered a report that differs from its first", seed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	seed := b.studySeed(0)
	var other []byte
	err = b.untraced(func() (err error) {
		other, err = b.studyOnce(0, seed, !spill)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.op(bytes.Equal(other, want[seed]), "study: seed %d: the monolithic and the spilled study render different reports", seed)
	return b.finish("study.unit", setup, p), nil
}

// studySeed is the k-th study seed of a run of --seed b.seed.
func (b *bench) studySeed(k int) int64 { return b.seed*studySeeds + int64(k) }

// studyOnce runs one study of seed at studyScale and returns its rendered
// report.
func (b *bench) studyOnce(parent int, seed int64, spill bool) ([]byte, error) {
	sc := core.DefaultStudyConfig(seed)
	sc.Scale = studyScale
	sc.Parallelism = workers
	if spill {
		dir, err := os.MkdirTemp(b.dir, "spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		sc.SpillDir = dir
		sc.SegmentRecords = studySegRecords
		sc.SpillWriters = workers
		sc.ScanWorkers = workers
	}
	traced := b.tr != nil
	var m0 memStats
	if traced {
		m0 = readMem()
	}
	var rep *core.StudyReport
	b.tr.do("core.run_study", parent, func(int) { rep = core.RunStudy(sc) })
	if traced {
		m := readMem().sub(m0)
		b.add("core.study_alloc_mib", m.allocMiB)
		b.add("core.study_gc_cycles", m.gcCycles)
		b.add("core.study_gc_pause_ms", m.pauseMs)
	}
	var out bytes.Buffer
	b.tr.do("report.render_study", parent, func(int) { report.RenderStudy(&out, rep) })
	return out.Bytes(), nil
}
