#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-full --seed 0 --seconds 45 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# journals, trace files, spans, CPU profiles) goes under .bench_build/ at the
# repository root. The final line of standard output is the JSON result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/perfbench"
# Keep the go command's caches, temporary files, env file and telemetry
# counters inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench/perfbench" .) >&2
cd "$root"
exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
