#!/usr/bin/env bash
# Builds the benchmark (perfbench/, a Go module of its own that imports the
# repository's packages) and runs it with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, scratch data and span files all go under
# .bench_build/ in the current directory. The local Go toolchain is used
# as is, never downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
