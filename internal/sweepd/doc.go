// Package sweepd turns the sweep engine into a long-lived service: a
// coordinator that holds one expanded scenario grid and leases batches
// of scenarios to worker processes over HTTP, replacing static -shard
// partitions with lease-based work stealing.
//
// The coordinator expands the grid once, queues every scenario its
// checkpoint does not already cover, and grants time-limited leases on
// demand. A worker loops lease → run → submit → repeat on the ordinary
// sweep.Runner machinery; leases are renewed by heartbeat and re-queued
// when they expire, so a dead or slow worker's batch is simply stolen by
// whoever asks next — no LPT cost guessing, no hand-run merges. Results
// stream into the coordinator's own JSONL checkpoint (the standard
// sweep.Checkpoint format), so a killed coordinator restarts from disk
// and resumes byte-identically; duplicate submissions from re-leased
// batches are deduplicated first-write-wins, which is invisible in the
// output because scenarios are deterministic functions of their seeds.
//
// The determinism contract extends the sharded one: the final aggregates
// and their rendered table/CSV/JSON bytes are invariant
// to worker count, lease order, batch size, lease expiry, duplicate
// submission and coordinator restarts — identical to a single-host
// Runner.Accumulate of the same grid — because every result folds
// through the same scenario-order Accumulator cursor.
//
// The same HTTP mux that serves the lease protocol (POST /lease,
// /heartbeat, /submit) also serves live progress: GET /state (queue,
// lease and worker liveness JSON), GET /aggregate (aggregates of the
// scenarios finished so far), GET /percentile?metric=NAME&p=95 (a
// per-point percentile of their raw values) and the internal/obs
// registry at /metrics and /snapshot.
package sweepd
