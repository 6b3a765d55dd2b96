// Command perfbench is the repository's benchmark. It drives the study
// simulator, the offline analysis pipeline and the risk-scoring server
// through their Go APIs, checks every output, and prints one JSON result
// as its last line.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
//
// Workloads, each explained in BENCHMARK.json:
//
//	study        core.RunStudy and report.RenderStudy on a monolithic log
//	study-spill  the same study on a spill-to-disk segmented log
//	analyze      one world dumped as NDJSON and as a segment directory,
//	             each loaded, analyzed and rendered
//	serve        in-process riskd on loopback: paced /v1/score and
//	             /v1/outcome replay at four fixed rates, then closed-loop
//	             /v1/score.batch replays of the whole dump
//
// With --trace 0 the result carries the end-to-end metrics (metrics.go).
// With --trace 1 the benchmark puts spans around its calls into every
// layer, runs each other workload once at a small size so that every
// layer reports, writes the spans under .bench_build/, and the result
// carries the per-layer metrics. The command exits non-zero when an
// output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload runs one workload (set-up, timed phase and checks) and
// returns its end-to-end metrics, which a companion run discards.
type workload func(b *bench, d time.Duration) (map[string]float64, error)

var workloads = map[string]workload{
	"study":       func(b *bench, d time.Duration) (map[string]float64, error) { return b.study(d, false) },
	"study-spill": func(b *bench, d time.Duration) (map[string]float64, error) { return b.study(d, true) },
	"analyze":     (*bench).analyze,
	"serve":       (*bench).serve,
}

// workloadNames orders the workloads as BENCHMARK.json does.
var workloadNames = []string{"study", "study-spill", "analyze", "serve"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: study, study-spill, analyze or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q; want one of %v", name, workloadNames)
	}
	out := ".bench_build"
	dir := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(seed, dir, traced, false)
	values, err := w(b, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	benches := []*bench{b}
	type row struct {
		metricDef
		note string
	}
	var rows []row
	if traced {
		values = b.layerValues()
		runs := []tracedRun{{name, b.tr.spans}}
		for _, other := range workloadNames {
			if other == name {
				continue
			}
			c := newBench(seed, dir, true, true)
			if _, err := workloads[other](c, d); err != nil {
				return nil, fmt.Errorf("%s, companion of %s: %w", other, name, err)
			}
			for k, v := range c.layerValues() {
				if _, ok := values[k]; !ok {
					values[k] = v
				}
			}
			benches = append(benches, c)
			runs = append(runs, tracedRun{other, c.tr.spans})
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := writeSpans(path, runs); err != nil {
			return nil, err
		}
		fmt.Printf("spans of %d traced runs written to %s\n", len(runs), path)
		for _, l := range layerDefs() {
			rows = append(rows, row{l.metricDef, "moves " + l.Moves})
		}
	} else {
		for _, m := range endToEnd {
			rows = append(rows, row{m, ""})
		}
	}

	res := &result{Metrics: make(map[string]metric, len(rows))}
	for _, c := range benches {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, p := range c.problems {
			fmt.Println("check failed:", p)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("%s, seed %d: %d checked operations, %d failed, fail_share %.6f\n",
		name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, r := range rows {
		v, ok := values[r.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", r.Name)
		}
		res.Metrics[r.Name] = metric{v, r.Unit}
		fmt.Printf("%-40s %18.6f %-9s %s\n", r.Name, v, r.Unit, r.note)
	}
	return res, nil
}
