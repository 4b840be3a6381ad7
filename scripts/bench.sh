#!/bin/sh
# bench.sh — run the perf benchmark suite and snapshot it as BENCH_<n>.json.
#
# Usage:
#   scripts/bench.sh            run the suite, write BENCH_<n>.json (next
#                               free index) at the repo root
#   scripts/bench.sh smoke      run the suite, write nothing, and fail when
#                               a gated benchmark's allocs/op regresses more
#                               than ALLOW_PCT (default 25%) over the newest
#                               committed BENCH_*.json snapshot
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 1x — every benchmark in
#               the suite is sized to be meaningful in a single iteration)
#   ALLOW_PCT   smoke-mode allocs/op regression allowance in percent
#   GOMAXPROCS  Go scheduler parallelism (default 1, the same pin perfbench
#               uses, so ns/op compares across snapshots and hosts; the
#               value is recorded in every snapshot's env block)
#
# The suite covers the two simulation hot paths (flowsim allocator,
# chunknet DES) and chunknet's INRPP estimator tick, plus the DES kernel
# (schedule-and-run, nested cascade, cancel-and-re-arm, fan-in event mix),
# routing (Dijkstra, sub-paths, ECMP), the custody store, and the sweep
# fold and worker pool; allocs/op
# is the gated metric because it is machine-independent, unlike wall-clock.
# Only the GATED list below fails a smoke run; the other benchmarks are
# recorded for the per-layer breakdown.
set -eu

cd "$(dirname "$0")/.." || exit 1

MODE="${1:-snapshot}"
BENCHTIME="${BENCHTIME:-1x}"
ALLOW_PCT="${ALLOW_PCT:-25}"
GOMAXPROCS="${GOMAXPROCS:-1}"
export GOMAXPROCS

# Gated benchmarks: the DES kernel and the allocator/simulator hot paths.
# A smoke run fails when any of these regresses in allocs/op.
GATED="BenchmarkScheduleAndRun BenchmarkCancelRearm BenchmarkFig4Scaled/SP BenchmarkFig4Scaled/INRP BenchmarkFig4Huge/SP BenchmarkFig4Huge/INRP BenchmarkChunknetFanIn BenchmarkChunknetDetour BenchmarkChunknetLossy"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

run_pkg() {
    pkg="$1"
    pattern="$2"
    go test -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" -benchmem "$pkg" >>"$RAW"
}

echo "bench: running suite (benchtime $BENCHTIME)..." >&2
run_pkg . 'BenchmarkFig4Scaled|BenchmarkFig4Huge|BenchmarkChunknetFanIn|BenchmarkChunknetDetour|BenchmarkChunknetLossy'
run_pkg ./internal/flowsim 'BenchmarkProgressiveFill|BenchmarkFillClasses|BenchmarkFillClassesSparse|BenchmarkRunSP|BenchmarkRunINRP'
run_pkg ./internal/chunknet 'BenchmarkTickEstimators'
run_pkg ./internal/des 'BenchmarkScheduleAndRun|BenchmarkNestedCascade|BenchmarkCancelRearm|BenchmarkFanInMix'
run_pkg ./internal/route 'BenchmarkDijkstraLevel3|BenchmarkSubpaths|BenchmarkECMPBuild'
run_pkg ./internal/cache 'BenchmarkCustodyOfferPop'
run_pkg ./internal/sweep 'BenchmarkAccumulator|BenchmarkSweepWorkers'

# Extract "name ns_per_op bytes_per_op allocs_per_op" rows from the raw
# `go test -bench` output. Benchmark lines pair each value with its unit,
# so scan fields for the unit and take the preceding field. The trailing
# -N GOMAXPROCS suffix is stripped so snapshots compare across machines.
extract() {
    awk '/^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op") ns = $(i-1)
            if ($i == "B/op") bytes = $(i-1)
            if ($i == "allocs/op") allocs = $(i-1)
        }
        if (ns != "") printf "%s %s %s %s\n", name, ns, bytes, allocs
    }' "$1"
}

# Environment metadata embedded in every snapshot, so a BENCH_<n>.json
# is self-describing: which toolchain, parallelism, CPU and commit
# produced its numbers.
env_json() {
    go_version="$(go version 2>/dev/null | awk '{ print $3 }')"
    maxprocs="$GOMAXPROCS"
    cpu="$(awk -F': *' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null)"
    commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    printf '  "env": {"go":"%s","gomaxprocs":%s,"cpu":"%s","commit":"%s"},\n' \
        "${go_version:-unknown}" "${maxprocs:-0}" "${cpu:-unknown}" "$commit"
}

to_json() {
    printf '{\n  "benchtime": "%s",\n' "$BENCHTIME"
    env_json
    printf '  "benchmarks": [\n'
    extract "$RAW" | awk '{
        if (NR > 1) printf ",\n"
        printf "    {\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}", $1, $2, $3, $4
    }'
    printf '\n  ]\n}\n'
}

if [ "$MODE" = "smoke" ]; then
    # Newest committed snapshot by index.
    base=""
    n=0
    while [ -e "BENCH_$n.json" ]; do
        base="BENCH_$n.json"
        n=$((n + 1))
    done
    if [ -z "$base" ]; then
        echo "bench: smoke: no BENCH_*.json baseline committed" >&2
        exit 1
    fi
    echo "bench: smoke: comparing against $base (allow +$ALLOW_PCT% allocs/op)" >&2
    current="$(mktemp)"
    to_json >"$current"
    status=0
    GATED="$GATED" ALLOW_PCT="$ALLOW_PCT" \
        sh scripts/bench-compare.sh "$base" "$current" || status=$?
    rm -f "$current"
    exit "$status"
fi

n=0
while [ -e "BENCH_$n.json" ]; do
    n=$((n + 1))
done
out="BENCH_$n.json"
to_json >"$out"
echo "bench: wrote $out" >&2
cat "$out"
