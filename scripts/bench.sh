#!/usr/bin/env bash
# Perf-trajectory harness (ISSUE 4). Runs the simulation-core benchmarks —
# scheduler (internal/simtime), log store (internal/logstore), end-to-end
# world and study engine (internal/core, root) — plus the scale-0.1 study
# wall-clock, and writes:
#
#   $TXT   benchstat-compatible text (feed two runs to `benchstat old new`)
#   $JSON  a machine-readable summary for the BENCH_<n>.json trajectory
#
# Usage:
#   scripts/bench.sh [TXT [JSON]]          # defaults: BENCH_dev.txt BENCH_dev.json
#
# Environment knobs (all optional):
#   BENCHTIME    per-bench duration/iterations for microbenches (default 2s;
#                CI smoke uses 1x)
#   COUNT        -count for benchstat variance (default 1)
#   STUDY_SCALE  hijackstudy -scale for the wall-clock probe (default 0.1)
#   STUDY_SEED   hijackstudy -seed (default 1)
#   SPILL_SCALE  hijackstudy -scale for the spill-mode probe (default:
#                STUDY_SCALE). The spill probe runs the same study with
#                -spill-dir, recording wall-clock and peak RSS for the
#                bounded-RAM segmented path; ISSUE 7's headline number is
#                SPILL_SCALE=1.0. Set SPILL_SCALE=0 to skip the probe.
#   SPILL_WRITERS  -spill-writers for the spill probe (default 2): the
#                segment writes in flight per era world.
#   SPILL_GZIP   set to 1 to gzip the probe's segment files (default 0).
#                Both are recorded in the JSON's study_spill block.
#   SERVE_REPLAY set to 1 to also run the riskd replay-throughput sweep
#                (seed-7 dump through a live riskd at workers {1,4} ×
#                batch {off,64}); adds a "serving_replay" block to $JSON.
#                Default 0 — it costs ~1 min and needs a free port.
#   SERVE_PORT   port for the replay sweep's riskd (default 8099)
#
# The checked-in BENCH_<n>.json trajectory files additionally carry a
# hand-recorded "baseline" block with the pre-PR numbers; regenerating one
# with this script refreshes only the current measurements, so merge the
# baseline back in when updating a trajectory file.
set -euo pipefail
cd "$(dirname "$0")/.."

TXT="${1:-BENCH_dev.txt}"
JSON="${2:-BENCH_dev.json}"
BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-1}"
STUDY_SCALE="${STUDY_SCALE:-0.1}"
STUDY_SEED="${STUDY_SEED:-1}"
SPILL_SCALE="${SPILL_SCALE:-$STUDY_SCALE}"
SPILL_WRITERS="${SPILL_WRITERS:-2}"
SPILL_GZIP="${SPILL_GZIP:-0}"
SERVE_REPLAY="${SERVE_REPLAY:-0}"
SERVE_PORT="${SERVE_PORT:-8099}"

: > "$TXT"

echo "== simtime scheduler benches (benchtime=$BENCHTIME)" >&2
go test -run '^$' -bench 'BenchmarkClock' -benchtime "$BENCHTIME" -count "$COUNT" \
    ./internal/simtime/ | tee -a "$TXT"

echo "== logstore benches (benchtime=$BENCHTIME)" >&2
go test -run '^$' -bench 'BenchmarkAppend|BenchmarkSelectScan|BenchmarkKindCountsScan' \
    -benchtime "$BENCHTIME" -count "$COUNT" ./internal/logstore/ | tee -a "$TXT"

echo "== serving pipeline + wire codec benches (benchtime=$BENCHTIME)" >&2
go test -run '^$' -bench 'BenchmarkServeScore|BenchmarkScoreWire' -benchtime "$BENCHTIME" -count "$COUNT" \
    ./internal/serve/ | tee -a "$TXT"

echo "== world + study engine benches" >&2
go test -run '^$' -bench 'BenchmarkWorldRun' -benchtime 5x -count "$COUNT" \
    ./internal/core/ | tee -a "$TXT"
go test -run '^$' -bench 'BenchmarkStudyParallel' -benchtime 1x -count "$COUNT" \
    . | tee -a "$TXT"

# Optional: replay-throughput sweep through a live riskd. Each mode gets a
# fresh riskd (replay evolves analyzer state; parity needs a clean slate)
# and must finish with zero mismatches — this measures only correct runs.
REPLAY_SWEEP_DIR=""
if [ "$SERVE_REPLAY" = "1" ]; then
    echo "== serving replay sweep (seed-7 dump, workers {1,4} x batch {0,64}, port $SERVE_PORT)" >&2
    REPLAY_SWEEP_DIR=$(mktemp -d)
    go build -o "$REPLAY_SWEEP_DIR/hijacksim" ./cmd/hijacksim
    go build -o "$REPLAY_SWEEP_DIR/riskd" ./cmd/riskd
    go build -o "$REPLAY_SWEEP_DIR/riskload" ./cmd/riskload
    "$REPLAY_SWEEP_DIR/hijacksim" -seed 7 -pop 2000 -days 10 -decoys 40 \
        -events "$REPLAY_SWEEP_DIR/world.ndjson.gz"
    for mode in "1 0" "4 0" "1 64" "4 64"; do
        set -- $mode
        w=$1; b=$2
        "$REPLAY_SWEEP_DIR/riskd" -addr "127.0.0.1:$SERVE_PORT" -seed 7 -pop 2000 -decoys 40 \
            2> "$REPLAY_SWEEP_DIR/riskd_w${w}_b${b}.log" &
        riskd_pid=$!
        for _ in $(seq 1 100); do
            curl -sf "http://127.0.0.1:$SERVE_PORT/v1/healthz" > /dev/null 2>&1 && break
            sleep 0.1
        done
        "$REPLAY_SWEEP_DIR/riskload" -addr "http://127.0.0.1:$SERVE_PORT" \
            -replay "$REPLAY_SWEEP_DIR/world.ndjson.gz" -workers "$w" -batch "$b" \
            -json "$REPLAY_SWEEP_DIR/replay_w${w}_b${b}.json"
        kill -TERM "$riskd_pid"
        wait "$riskd_pid"
        grep -q 'drained cleanly' "$REPLAY_SWEEP_DIR/riskd_w${w}_b${b}.log"
    done
fi

echo "== study wall-clock (scale=$STUDY_SCALE seed=$STUDY_SEED)" >&2
go build -o /tmp/hijackstudy.bench ./cmd/hijackstudy
STUDY_OUT=$(mktemp)
start_ms=$(date +%s%3N)
/tmp/hijackstudy.bench -seed "$STUDY_SEED" -scale "$STUDY_SCALE" > "$STUDY_OUT"
end_ms=$(date +%s%3N)
study_s=$(awk -v a="$start_ms" -v b="$end_ms" 'BEGIN { printf "%.3f", (b - a) / 1000 }')
study_rss=$(awk '/^peak-rss-mib:/ { print $2 }' "$STUDY_OUT"); study_rss="${study_rss:-0}"
rm -f "$STUDY_OUT"
echo "study wall-clock: ${study_s}s peak-rss: ${study_rss}MiB (scale=$STUDY_SCALE)" >&2

# Spill-mode probe: the same study, each era world also writing its log
# as spill-to-disk segments (the per-era dump analyze reads;
# byte-identical report). Records what writing the dump costs in
# wall-clock and peak RSS: without -spill-dir the study keeps no log.
spill_s=0; spill_rss=0
if [ "$SPILL_SCALE" != "0" ]; then
    echo "== study wall-clock, spill mode (scale=$SPILL_SCALE seed=$STUDY_SEED writers=$SPILL_WRITERS gzip=$SPILL_GZIP)" >&2
    SPILL_TMP=$(mktemp -d)
    gzip_flag=""
    [ "$SPILL_GZIP" = "1" ] && gzip_flag="-segment-gzip"
    start_ms=$(date +%s%3N)
    /tmp/hijackstudy.bench -seed "$STUDY_SEED" -scale "$SPILL_SCALE" \
        -spill-writers "$SPILL_WRITERS" $gzip_flag \
        -spill-dir "$SPILL_TMP/segs" > "$SPILL_TMP/out.txt"
    end_ms=$(date +%s%3N)
    spill_s=$(awk -v a="$start_ms" -v b="$end_ms" 'BEGIN { printf "%.3f", (b - a) / 1000 }')
    spill_rss=$(awk '/^peak-rss-mib:/ { print $2 }' "$SPILL_TMP/out.txt"); spill_rss="${spill_rss:-0}"
    rm -rf "$SPILL_TMP"
    echo "spill study wall-clock: ${spill_s}s peak-rss: ${spill_rss}MiB (scale=$SPILL_SCALE)" >&2
fi

# Summarize the benchstat text as JSON. Multiple -count runs of the same
# benchmark are averaged.
awk -v study_s="$study_s" -v scale="$STUDY_SCALE" -v study_rss="$study_rss" \
    -v spill_s="$spill_s" -v spill_scale="$SPILL_SCALE" -v spill_rss="$spill_rss" \
    -v spill_writers="$SPILL_WRITERS" -v spill_gzip="$SPILL_GZIP" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    n[name]++
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns[name]     += $i
        if ($(i+1) == "B/op")      bytes[name]  += $i
        if ($(i+1) == "allocs/op") allocs[name] += $i
    }
}
END {
    printf "{\n"
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"date\": \"%s\",\n", date
    printf "  \"benchmarks\": {\n"
    count = 0
    for (name in n) count++
    i = 0
    for (name in n) {
        i++
        printf "    \"%s\": {\"ns_op\": %.1f", name, ns[name] / n[name]
        if (name in bytes)  printf ", \"b_op\": %.0f", bytes[name] / n[name]
        if (name in allocs) printf ", \"allocs_op\": %.3f", allocs[name] / n[name]
        printf "}%s\n", (i < count ? "," : "")
    }
    printf "  },\n"
    printf "  \"study\": {\"scale\": %s, \"wallclock_s\": %s, \"peak_rss_mib\": %s}", scale, study_s, study_rss
    if (spill_scale != "0")
        printf ",\n  \"study_spill\": {\"scale\": %s, \"wallclock_s\": %s, \"peak_rss_mib\": %s, \"writers\": %s, \"gzip\": %s}", \
            spill_scale, spill_s, spill_rss, spill_writers, (spill_gzip == "1" ? "true" : "false")
    printf "\n}\n"
}' "$TXT" > "$JSON"

if [ -n "$REPLAY_SWEEP_DIR" ]; then
    python3 - "$JSON" "$REPLAY_SWEEP_DIR" <<'EOF'
import json, sys
out_path, sweep = sys.argv[1], sys.argv[2]
doc = json.load(open(out_path))
modes = {}
for w in (1, 4):
    for b in (0, 64):
        r = json.load(open(f"{sweep}/replay_w{w}_b{b}.json"))
        rep = r["replay"]
        assert rep["mismatches"] == 0, rep
        modes[f"workers{w}_batch{b}"] = {
            "qps_achieved": round(r["qps_achieved"], 1),
            "duration_s": round(r["duration_s"], 3),
            "scored": rep["scored"],
            "http_requests": rep["http_requests"],
        }
doc["serving_replay"] = modes
json.dump(doc, open(out_path, "w"), indent=2)
open(out_path, "a").write("\n")
EOF
    rm -rf "$REPLAY_SWEEP_DIR"
fi

echo "wrote $TXT and $JSON" >&2
