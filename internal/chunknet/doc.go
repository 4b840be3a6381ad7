// Package chunknet is the chunk-level discrete-event simulator of the
// INRPP reproduction: named chunks move over capacitated links between
// receiver-driven endpoints, through routers that run the paper's
// three-phase interface machinery (push-data / detour / back-pressure)
// with custody caches, per-interface anticipated-rate estimation and
// explicit back-pressure notifications.
//
// Three transports share the same links and topology, forming the
// transport axis of the custody sweeps:
//
//   - INRPP — the paper's design (§3.2–3.3): receiver-driven open-loop
//     push with in-network custody, one-hop detours and explicit
//     back-pressure;
//   - AIMD — a TCP-Reno-flavoured sender-driven single-path baseline
//     with drop-tail queues, the "closed feedback loop … resource
//     probing" design the paper argues against (§2.1);
//   - ARC — adaptive request control: a receiver-driven baseline that
//     runs AIMD over its request window, the way CCN/NDN
//     interest-shaping transports probe for capacity. Pull like INRPP,
//     end-to-end probing like AIMD — it isolates how much of INRPP's
//     gain comes from in-network resource pooling rather than from
//     receiver-driven pull alone.
//
// The INRPP receiver paces its requests on a lattice of one chunk at
// the estimated data rate, but only runs when it has something to do:
// an idle run parks the loop, and a delivery wakes it at the next
// lattice point, or the NACK deadline does (see requestLoop in
// loop.go). The model's equal-time order: at one instant every other
// event fires first, in DES key order, and then the request-loop runs
// fire, in AddTransfer order. So a run at t sees every delivery at t.
//
// Routers close their eq. 1 measurement interval every Ti (the
// estimator tick). A tick asks the detour planner for a detour only on
// an interface that is congested at its smoothed anticipated rate, the
// only case in which the phase update reads the answer. The tick chain
// ends at the horizon or once the Sim has drained: every transfer done,
// no packet alive and no sender resend queued, after which nothing
// reads a phase or a rate again. Idle arcs are not skipped by value: a
// loaded arc's rate EWMA decays toward 0 but sticks at a denormal
// (about 1e-323) instead of reaching it.
//
// The simulator is single-threaded and deterministic: the same Config
// and transfer list always produce the same Report. A Sim that finishes
// Run passes its DES arrays, packets, store, queue and pipe arrays and
// random streams to the next New (warm.go), with their contents reset,
// so no output depends on which Sim ran before. Sweeps over
// transport, anticipation, custody budget and load run through
// sweep.ChunkSpec, which adds deterministic seed-driven start jitter on
// top.
package chunknet
