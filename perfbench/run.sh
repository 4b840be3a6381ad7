#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and runs
# it from the checkout root; arguments pass through, for example
#   bash perfbench/run.sh --workload fig4-pool --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache, CPU profiles and span files all stay
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
if [ -d .git ] && [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
	export PERFBENCH_COMMIT
fi
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
