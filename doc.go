// Package repro is a from-scratch Go reproduction of "Revisiting Resource
// Pooling: The Case for In-Network Resource Sharing" (Psaras, Saino,
// Pavlou — ACM HotNets-XIII, 2014): the In-Network Resource Pooling
// Principle (INRPP), its substrates, and every experiment in the paper.
//
// The root package holds only the paper benchmarks (bench_test.go): one
// benchmark per evaluation artifact plus design ablations, each reporting
// its headline metric next to the performance profile. The implementation
// lives in the internal packages:
//
//   - internal/core     — the INRPP protocol logic (phases, eq. 1
//     estimator, detour planner, request window);
//   - internal/topo     — graphs, generators and the nine calibrated
//     synthetic ISP topologies of Table 1;
//   - internal/route    — shortest paths, ECMP, detour classification;
//   - internal/flowsim  — the flow-level simulator behind Figure 4;
//   - internal/chunknet — the chunk-level INRPP/AIMD simulator behind the
//     custody experiment;
//   - internal/sweep    — the parallel scenario-sweep engine;
//   - internal/experiments — one harness per paper artifact.
//
// See examples/ for runnable walkthroughs and cmd/experiments for the
// paper-vs-measured tables.
package repro
