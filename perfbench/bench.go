package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"manualhijack/internal/core"
)

// workers is the load the benchmark puts on the program: study and
// analysis parallelism, spill writers, scan-ahead workers, decode shards
// and replay lanes. It matches the 2 cores of the reference host, and
// GOMAXPROCS is pinned to it so that results do not depend on how many
// CPUs a machine reports.
const workers = 2

// An untraced run repeats a workload's unit until the timed phase has
// lasted --seconds and at least minUnits units have run, and reports
// medians. The traced run of a workload alternates untraced and traced
// units tracedPairs times, so that the tracing overhead compares like
// with like; a companion run does one traced unit. Set-up runs setupReps
// times in an untraced run (more for a set-up as short as the study's),
// so that setup_s is a median too, and once in a traced one.
const (
	minUnits    = 3
	tracedPairs = 3
	setupReps   = 3
)

// accountedMargin is how far, in percentage points, the layers' self
// times in a traced unit may sum from the untraced unit's wall time
// (trace.accounted_pct from 100) before the spans are taken to miss a
// layer or to cost too much themselves.
const accountedMargin = 15.0

// bench is one workload run's state.
type bench struct {
	seed int64
	dir  string // scratch directory inside the checkout
	// tr is the run's tracer: nil in an untraced run, and while an
	// untraced unit of a traced run executes.
	tr *tracer
	// rec collects per-request serving samples in a traced run.
	rec *samples
	// mini marks a companion run: a workload run once, traced, at a small
	// size, so that a traced run reports the layers its own workload does
	// not reach.
	mini bool

	vals map[string][]float64 // per-layer values, reported as medians
	sums map[string]float64   // per-layer counts, reported as totals

	attempted, failed int
	problems          []string
}

func newBench(seed int64, dir string, traced, mini bool) *bench {
	b := &bench{seed: seed, dir: dir, mini: mini, vals: map[string][]float64{}, sums: map[string]float64{}}
	if traced {
		b.tr = newTracer()
		b.rec = &samples{by: map[string][]float64{}}
	}
	return b
}

// op counts one checked operation, failed unless ok.
func (b *bench) op(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	b.ops(1, bad, format, args...)
}

// ops counts n checked operations, bad of which failed.
func (b *bench) ops(n, bad int, format string, args ...any) {
	b.attempted += n
	if bad > 0 {
		b.failed += bad
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) add(name string, v float64) { b.vals[name] = append(b.vals[name], v) }
func (b *bench) sum(name string, v float64) { b.sums[name] += v }

// setups is how many times a workload sets up: reps in an untraced run,
// once in a traced one.
func (b *bench) setups(reps int) int {
	if b.tr != nil {
		return 1
	}
	return reps
}

// untraced runs fn with tracing off.
func (b *bench) untraced(fn func() error) error {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	return fn()
}

// simulate builds and runs a world as cmd/hijacksim does: the default
// configuration with the run's seed, pop accounts and days days.
func (b *bench) simulate(pop, days int) *core.World {
	cfg := core.DefaultConfig(b.seed)
	cfg.PopulationN = pop
	cfg.Days = days
	traced := b.tr != nil
	var m0 memStats
	if traced {
		m0 = readMem()
	}
	var w *core.World
	b.tr.do("core.new_world", 0, func(int) { w = core.NewWorld(cfg) })
	b.tr.do("core.world_run", 0, func(int) { w.Run() })
	if traced {
		m := readMem().sub(m0)
		b.add("core.world_alloc_mib", m.allocMiB)
		b.add("core.world_gc_cycles", m.gcCycles)
		b.add("core.world_events", float64(w.Log.Len()))
	}
	return w
}

// phase is what a workload's timed phase measured: the wall time and
// peak RSS of each untraced unit, the wall time of each traced unit, and
// the runtime counters of every unit.
type phase struct {
	walls, peaks, traced []float64
	mem                  []memStats
}

// measure runs the workload's unit, each time in a root span named root.
// prep runs before each unit, outside its wall time and RSS peak: a fresh
// server for a replay, say.
func (b *bench) measure(root string, d time.Duration, prep func() error, unit func(parent int) error) (phase, error) {
	var p phase
	tr := b.tr
	defer func() { b.tr = tr }()
	start := time.Now()
	for i := 0; ; i++ {
		switch {
		case b.mini:
			if i == 1 {
				return p, nil
			}
		case tr != nil:
			if i == 2*tracedPairs {
				return p, nil
			}
		case i >= minUnits && time.Since(start) >= d:
			return p, nil
		}
		traced := tr != nil && (b.mini || i%2 == 1)
		b.tr = nil
		if traced {
			b.tr = tr
		}
		if prep != nil {
			if err := prep(); err != nil {
				return p, err
			}
		}
		debug.FreeOSMemory()
		stop, err := watchRSS()
		if err != nil {
			return p, err
		}
		m0 := readMem()
		t0 := time.Now()
		var uerr error
		b.tr.do(root, 0, func(id int) { uerr = unit(id) })
		wall := time.Since(t0).Seconds()
		p.mem = append(p.mem, readMem().sub(m0))
		peak := stop()
		if uerr != nil {
			return p, uerr
		}
		if traced {
			p.traced = append(p.traced, wall)
		} else {
			p.walls = append(p.walls, wall)
			p.peaks = append(p.peaks, peak)
		}
	}
}

// finish reduces a workload's set-up times and timed phase to its
// end-to-end metrics. In a traced run of the workload itself it also
// records the runtime counters per unit, the tracing overhead, and how
// much of the untraced wall time the layers' self times account for.
func (b *bench) finish(root string, setup []float64, p phase) map[string]float64 {
	wall := median(p.walls)
	if b.tr != nil && !b.mini {
		for _, m := range p.mem {
			b.add("runtime.alloc_mib", m.allocMiB)
			b.add("runtime.gc_cycles", m.gcCycles)
			b.add("runtime.gc_pause_ms", m.pauseMs)
		}
		overhead := 100 * (median(p.traced) - wall) / wall
		accounted := 100 * layerSeconds(b.tr.spans, root) / wall
		b.add("runtime.tracing_overhead_pct", overhead)
		b.add("trace.accounted_pct", accounted)
		fmt.Printf("the layers' self times in a traced unit sum to %.1f%% of the untraced wall_s (within %.0f points of 100: %v); traced units take %.1f%% longer\n",
			accounted, accountedMargin, math.Abs(accounted-100) <= accountedMargin, overhead)
	}
	return map[string]float64{"setup_s": median(setup), "wall_s": wall, "peak_rss_mib": median(p.peaks)}
}

// layerValues reduces what a traced run recorded to per-layer values:
// span self times by name (suffix _s, median over calls), recorded
// values (median), counts (total) and serving samples (percentiles).
func (b *bench) layerValues() map[string]float64 {
	out := make(map[string]float64)
	for name, v := range selfByName(b.tr.spans) {
		out[name+"_s"] = median(v)
	}
	for name, v := range b.vals {
		out[name] = median(v)
	}
	for name, v := range b.sums {
		out[name] = v
	}
	b.rec.values(out)
	return out
}
