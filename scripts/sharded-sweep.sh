#!/bin/sh
# sharded-sweep.sh — local harness for the distributed-sweep workflow:
# runs a cmd/sweep grid as N shard processes (stand-ins for N machines),
# merges their checkpoints, and verifies the merged output is
# byte-identical to an unsharded run of the same grid.
#
# Usage:
#
#   scripts/sharded-sweep.sh [shards] [cmd/sweep args...]
#
#   scripts/sharded-sweep.sh 3 -mode chunk -transports inrpp,aimd \
#       -chunksize 100KB -chunks 5000 -replicas 2 -seed 7
#
# On real machines the shard runs happen on different hosts and the
# checkpoint files are copied back before -merge. Shards are fixed up
# front; a host that dies reruns its own shard command, which resumes
# from its checkpoint ("Distributing a sweep" in README.md).
set -eu

# The shard count is optional: consume $1 only when it is numeric, so
# "sharded-sweep.sh -mode chunk ..." doesn't eat "-mode" as the count.
case "${1:-}" in
'' | *[!0-9]*) shards=3 ;;
*)
    shards="$1"
    shift
    ;;
esac

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> unsharded reference run" >&2
go run ./cmd/sweep -q "$@" > "$workdir/unsharded.txt"

files=""
i=0
while [ "$i" -lt "$shards" ]; do
    echo "==> shard $i/$shards" >&2
    go run ./cmd/sweep -q -shard "$i/$shards" \
        -checkpoint "$workdir/shard$i.jsonl" "$@" > /dev/null
    files="$files$workdir/shard$i.jsonl,"
    i=$((i + 1))
done

echo "==> merge $shards shard checkpoints" >&2
go run ./cmd/sweep -q -merge "${files%,}" "$@" > "$workdir/merged.txt"

if cmp -s "$workdir/unsharded.txt" "$workdir/merged.txt"; then
    echo "OK: merged output of $shards shards is byte-identical to the unsharded run"
else
    echo "FAIL: merged output differs from the unsharded run" >&2
    diff "$workdir/unsharded.txt" "$workdir/merged.txt" >&2 || true
    exit 1
fi
