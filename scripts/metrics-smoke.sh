#!/bin/sh
# metrics-smoke.sh — end-to-end check of the live observability endpoint:
# run a small sweep with -metrics on an ephemeral port, scrape both
# exposures while the endpoint lingers on the final snapshot, and assert
# well-formed Prometheus text format and JSON. CI runs this so the HTTP
# surface cannot rot between releases.
set -eu

cd "$(dirname "$0")/.." || exit 1

workdir="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "metrics-smoke: building cmd/sweep..." >&2
go build -o "$workdir/sweep" ./cmd/sweep

"$workdir/sweep" \
    -isps "VSNL (IN)" -policies sp,inrp -flows 30 \
    -capacity 100Mbps -demand 50Mbps -size 20MB -horizon 2s \
    -replicas 1 -seed 1 -workers 1 -q \
    -metrics 127.0.0.1:0 -metrics-linger 60s \
    >"$workdir/stdout" 2>"$workdir/stderr" &
pid=$!

# Wait for the sweep to finish and the endpoint to enter its linger
# phase; the address line appears first, the linger banner last.
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*metrics listening on \(http:\/\/[0-9.:]*\).*/\1/p' "$workdir/stderr")"
    if [ -n "$addr" ] && grep -q "serving final snapshot" "$workdir/stderr"; then
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "metrics-smoke: sweep exited before serving; stderr:" >&2
        cat "$workdir/stderr" >&2
        exit 1
    fi
    sleep 0.2
done
if [ -z "$addr" ]; then
    echo "metrics-smoke: no metrics address on stderr" >&2
    cat "$workdir/stderr" >&2
    exit 1
fi
echo "metrics-smoke: scraping $addr" >&2

curl -fsS "$addr/metrics" >"$workdir/prom"
curl -fsS "$addr/snapshot" >"$workdir/snap"

fail=0
check() {
    file="$1"
    pattern="$2"
    what="$3"
    if ! grep -q "$pattern" "$file"; then
        echo "metrics-smoke: FAIL $what (pattern: $pattern)" >&2
        cat "$file" >&2
        fail=1
    fi
}

# Prometheus text format: TYPE headers and the final counter values of a
# 2-scenario sweep.
check "$workdir/prom" '^# TYPE sweep_scenarios_completed counter$' "prometheus TYPE line"
check "$workdir/prom" '^sweep_scenarios_completed 2$' "completed counter value"
check "$workdir/prom" '^flowsim_flows_admitted [1-9]' "flowsim counters present"

# JSON snapshot: named registry with counters and gauges sections.
check "$workdir/snap" '"registry": "sweep"' "snapshot registry name"
check "$workdir/snap" '"counters"' "snapshot counters section"
check "$workdir/snap" '"sweep_scenarios_completed": 2' "snapshot completed value"

if [ "$fail" = 0 ]; then
    echo "metrics-smoke: ok" >&2
fi
exit "$fail"
