// Package sweep is the scenario-sweep engine behind the repo's parameter
// studies: it expands parameter grids (topology × policy × load × seed
// replicas …) into scenario lists with deterministic per-scenario seeds,
// executes them on a bounded worker pool with cancellation and per-scenario
// error capture, and aggregates replica metrics into mean/stddev/percentile
// summaries rendered through internal/report.
//
// The engine is built around four guarantees:
//
//   - Determinism: a scenario's seed is a hash of its parameter point and
//     replica index — never a shared RNG, never dependent on execution
//     order — so the same grid and master seed produce byte-identical
//     aggregated output at any worker count, including after a mid-sweep
//     cancel and resume.
//   - Isolation: one failed (or panicking) scenario is captured in its
//     Result and must never kill the sweep.
//   - Order independence: results are reported in scenario order regardless
//     of which worker finished first.
//   - Durability: a Checkpoint streams completed results to a JSONL file
//     as they finish, and LoadCheckpoint aligns that file back onto a
//     freshly expanded scenario list — so even a SIGKILLed process can
//     restart, run only what is missing, and emit the same bytes as an
//     uninterrupted run.
//   - Shard invariance: a Shard deterministically partitions the expanded
//     grid by a hash of each scenario's identity, so N machines can each
//     run one slice (Runner.Shard) against standard checkpoints, and
//     MergeCheckpointsInto recombines the N files — validating same
//     grid/master-seed/config, rejecting overlaps, naming gaps — into
//     output byte-identical to an unsharded run at any shard count.
//   - Bounded aggregation: an Accumulator folds results into per-point
//     aggregates as workers finish (Runner.Accumulate, or record-at-a-time
//     from shard files via MergeCheckpointsInto), reordered behind a
//     cursor so streaming changes memory, never bytes. AggExact keeps raw
//     samples; AggSketch swaps the sample pools for bounded quantile
//     sketches (stats.GKSketch) whose percentile error is test-enforced;
//     AggAuto cuts over from the former to the latter at a sample budget,
//     bit-identically to a pure run of either.
//
// Two scenario constructors cover the repo's simulators: FlowSpec builds
// flow-level scenarios (the Figure 4 recipe: ISP topology + Poisson
// workload + routing policy), and ChunkSpec builds chunk-level scenarios
// on the custody bottleneck chain (the §3.3 recipe: INRPP/AIMD/ARC
// transport + anticipation + custody budget + concurrent-transfer load).
// Both derive everything from the scenario seed, so grid axes that
// exclude the comparison dimension (Grid.SeedAxes) measure every
// alternative under identical load.
//
// FlowSpec memoizes trace generation: scenarios handed the same workload
// seed at the same spec (a grid whose SeedAxes exclude the policy axis)
// hit a bounded in-process cache and share one generated trace instead of
// regenerating it once per policy. A hit returns the cached trace
// unmodified (flowsim treats its input flows as read-only), a miss
// generates deterministically, and eviction only ever costs a
// regeneration — cache state can never change a scenario's outcome, so
// the byte-identical guarantees above are unaffected.
//
// See ARCHITECTURE.md at the repo root for the layer map and the data
// flow of a sweep run.
package sweep
