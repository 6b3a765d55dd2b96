package main

import "manualhijack/internal/core"

// metricDef is a metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports for its workload: the
// median set-up time, the median wall time of one unit of the workload's
// job to a checked result, and the median peak resident set of a unit.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// layerDef is a per-layer metric and what it should move: an end-to-end
// metric, or a serving or analysis figure printed beside them, on the
// named workloads.
type layerDef struct {
	metricDef
	Moves string
}

func layer(name, unit, better, moves string) layerDef {
	return layerDef{metricDef{name, unit, better}, moves}
}

const (
	simSetup    = "setup_s on analyze, serve"
	studyWall   = "wall_s on study, study-spill"
	ndjsonWall  = "wall_s (analyze.ndjson_s) on analyze"
	segWall     = "wall_s (analyze.segments_s) on analyze"
	segSpill    = "wall_s (analyze.segments_s) on analyze; wall_s on study-spill"
	encodeSetup = "setup_s on analyze; wall_s on study-spill, through the same encoder"
	engine      = "wall_s (serve.batch_logins_per_s) and serve.max_rate on serve"
	openLoop    = "serve.max_rate and fail_share on serve"
	busCost     = "serve.p99_ms and serve.max_rate on serve"
	perUnit     = "wall_s and peak_rss_mib on the traced workload"
)

// perLayer lists the per-layer metrics of a traced run, before the
// registry folds that layerDefs appends.
var perLayer = []layerDef{
	layer("core.new_world_s", "s", "lower", simSetup),
	layer("core.world_run_s", "s", "lower", simSetup),
	layer("core.world_events", "count", "higher", simSetup),
	layer("core.world_alloc_mib", "MiB", "lower", simSetup),
	layer("core.world_gc_cycles", "count", "lower", simSetup),
	layer("core.run_study_s", "s", "lower", studyWall),
	layer("core.study_alloc_mib", "MiB", "lower", "wall_s and peak_rss_mib on study, study-spill"),
	layer("core.study_gc_cycles", "count", "lower", studyWall),
	layer("core.study_gc_pause_ms", "ms", "lower", studyWall),

	layer("logstore.read_ndjson_s", "s", "lower", ndjsonWall),
	layer("logstore.scan_s", "s", "lower", ndjsonWall),
	layer("logstore.write_ndjson_s", "s", "lower", "setup_s on analyze"),
	layer("logstore.ndjson_mib", "MiB", "lower", "setup_s on analyze"),
	layer("logstore.resegment_s", "s", "lower", encodeSetup),
	layer("logstore.segment_mib", "MiB", "lower", encodeSetup),
	layer("logstore.segments", "count", "lower", segWall),
	layer("logstore.open_segments_s", "s", "lower", segWall),
	layer("logstore.scan_segments_s", "s", "lower", segSpill),
	layer("logstore.cache_hits", "count", "higher", segSpill),
	layer("logstore.cache_misses", "count", "lower", segSpill),
	layer("logstore.prefetch_deduped", "count", "lower", segSpill),
	layer("logstore.cache_evictions", "count", "lower", segSpill),
	layer("logstore.cache_hit_ratio", "ratio", "higher", segSpill),

	layer("core.run_analyses_ndjson_s", "s", "lower", ndjsonWall),
	layer("core.run_analyses_segments_s", "s", "lower", segWall),
	layer("core.merge_s", "s", "lower", segSpill),

	layer("report.render_study_s", "s", "lower", studyWall),
	layer("report.render_offline_s", "s", "lower", "wall_s on analyze"),

	layer("analyze.ndjson_s", "s", "lower", "wall_s on analyze"),
	layer("analyze.segments_s", "s", "lower", "wall_s on analyze"),

	layer("serve.bootstrap_s", "s", "lower", "setup_s on serve"),
	layer("serve.prime_s", "s", "lower", "setup_s on serve"),
	layer("serve.engine_score_p50_us", "us", "lower", engine),
	layer("serve.engine_score_p99_us", "us", "lower", engine),
	layer("serve.engine_outcome_us", "us", "lower", engine),
	layer("serve.handler_p50_us", "us", "lower", "serve.p50_ms and wall_s on serve"),
	layer("serve.handler_p99_us", "us", "lower", "serve.p99_ms on serve"),
	layer("serve.client_rtt_p50_us", "us", "lower", "serve.p50_ms on serve"),
	layer("serve.client_rtt_p99_us", "us", "lower", "serve.p99_ms on serve"),
	layer("serve.lateness_p50_ms", "ms", "lower", "serve.max_rate on serve"),
	layer("serve.lateness_p99_ms", "ms", "lower", "serve.max_rate on serve"),
	layer("serve.http_requests", "count", "higher", openLoop),
	layer("serve.rejected_429", "count", "lower", openLoop),
	layer("serve.errors", "count", "lower", openLoop),
	layer("serve.mismatches", "count", "lower", openLoop),
	layer("serve.batch_handler_ms", "ms", "lower", "wall_s (serve.batch_logins_per_s) on serve"),
	layer("serve.p50_ms", "ms", "lower", "serving latency at 2000 logins/s on serve"),
	layer("serve.p99_ms", "ms", "lower", "serving latency at 2000 logins/s on serve"),
	layer("serve.latency_samples", "count", "higher", "sample count of serve.p50_ms and serve.p99_ms"),
	layer("serve.max_rate", "logins/s", "higher", "open-loop capacity on serve"),
	layer("serve.batch_logins_per_s", "logins/s", "higher", "wall_s on serve"),

	layer("stream.publish_us", "us", "lower", busCost),
	layer("stream.observed", "count", "higher", busCost),
	layer("stream.dropped", "count", "lower", busCost),
	layer("stream.dropped_share", "ratio", "lower", busCost),

	layer("runtime.gc_cycles", "count", "lower", perUnit),
	layer("runtime.alloc_mib", "MiB", "lower", perUnit),
	layer("runtime.gc_pause_ms", "ms", "lower", perUnit),
	layer("runtime.tracing_overhead_pct", "%", "lower", "nothing: the cost of the spans themselves"),
	layer("trace.accounted_pct", "%", "higher", "nothing: the share of wall_s the layers' self times cover"),
}

// layerDefs is every per-layer metric, in BENCHMARK.json order: perLayer,
// then one fold time per core.Registry() entry.
func layerDefs() []layerDef {
	defs := append([]layerDef(nil), perLayer...)
	for _, a := range core.Registry() {
		defs = append(defs, layer("analysis."+a.Name+".fold_s", "s", "lower",
			"wall_s on analyze; wall_s on study, slightly"))
	}
	return defs
}
