package chunknet

// This file implements the failure model: the arc down-state machine and
// the deterministic processes that drive it.
//
// Three cause classes can hold an arc down, and they compose freely on
// the same arc:
//
//   - the arc's own churn process (topo.OutageSpec on the link) —
//     independent stochastic up/down cycles;
//   - maintenance calendars (topo.CalendarSpec) — explicit absolute
//     [start, end) down-windows, no randomness at all;
//   - shared-risk link groups (topo.SRLG) — one seeded process (and/or
//     calendar) that takes every arc of every member link down together,
//     modelling correlated failure of a shared conduit.
//
// The arc therefore counts its active down causes instead of keeping a
// boolean: it is down while any cause is active, and hard-down (the
// serializer pauses, in-flight packets are lost — the §3.3 "temporary
// custodian" contract) while any hard cause is active. Soft causes
// (DownRate > 0) instead cap the serializer at the minimum of the active
// degraded rates, and nothing is dropped. Chunks already accepted into
// the store stay in custody across any outage and are requeued on
// recovery (or evacuated through detours under FailoverReroute — see
// failover.go).
//
// Independently of outages, an arc with a per-packet loss probability
// drops each would-be arrival with that probability — continuous random
// loss exercising the transports' recovery paths (INRPP NACK/resend,
// AIMD RTO) rather than the bursts outages produce.
//
// Determinism: every process owns a math/rand stream seeded by
// splitmix64 over (ChurnSeed, source index) — arcs use their arc index,
// SRLGs an index offset past all arcs, loss streams the arc index with
// the top seed bit flipped — and every transition is a regular DES
// event, so a seeded run replays byte-identically regardless of
// instrumentation or host.

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// splitmix64 is the standard 64-bit mix used to derive independent
// per-process seeds from (ChurnSeed, source index) without stream
// overlap.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// srlgState drives one shared-risk link group: a single up/down process
// whose transitions fail and recover every member arc at the same
// instant.
type srlgState struct {
	sim      *Sim
	name     string
	outage   topo.OutageSpec
	calendar topo.CalendarSpec
	arcs     []*arcState
	rng      *rand.Rand
	down     bool // the stochastic process's phase (calendar windows are separate causes)
	tickFn   func()

	cTransitions *obs.Counter
}

// startChurn arms every failure process: per-arc churn, per-arc
// calendars, per-arc loss streams, and the SRLG group processes. Called
// once from Run; undisrupted arcs never transition and pay no cost. The
// first stochastic failure lands after one sampled up-phase; calendar
// transitions land exactly on their declared instants.
func (s *Sim) startChurn() {
	for idx, a := range s.arcs {
		if a == nil {
			continue
		}
		if a.outage.Enabled() {
			seed := splitmix64(uint64(s.cfg.ChurnSeed)<<16 + uint64(idx))
			a.churnRng = s.warm.rand(int64(seed))
			if a.churnFn == nil {
				a.churnFn = a.churnTick
			}
			s.des.After(sampleChurn(a.churnRng, a.outage, a.outage.Up), a.churnFn)
		}
		if a.calendar.Enabled() {
			s.scheduleCalendar(a.calendar, []*arcState{a}, nil)
		}
		if a.lossProb > 0 {
			// The top seed bit is flipped so the loss stream never
			// collides with any churn stream (arc indexes and SRLG
			// indexes stay far below 2^63).
			seed := splitmix64((uint64(s.cfg.ChurnSeed)<<16 + uint64(idx)) ^ (1 << 63))
			a.lossRng = s.warm.rand(int64(seed))
		}
	}
	for gi, grp := range s.srlgs {
		if grp.outage.Enabled() {
			seed := splitmix64(uint64(s.cfg.ChurnSeed)<<16 + uint64(2*s.g.NumLinks()+gi))
			grp.rng = s.warm.rand(int64(seed))
			grp.tickFn = grp.tick
			s.des.After(sampleChurn(grp.rng, grp.outage, grp.outage.Up), grp.tickFn)
		}
		if grp.calendar.Enabled() {
			s.scheduleCalendar(grp.calendar, grp.arcs, grp)
		}
	}
}

// churnTick alternates the arc's own process between up and down,
// rescheduling itself with the next sampled phase duration. Events
// scheduled past the run horizon simply never fire, which is what ends
// the process.
func (a *arcState) churnTick() {
	if a.churnDown {
		a.churnDown = false
		a.recoverCause(a.outage.Hard(), a.outage.DownRate)
		a.sim.des.After(sampleChurn(a.churnRng, a.outage, a.outage.Up), a.churnFn)
	} else {
		a.churnDown = true
		a.failCause(a.outage.Hard(), a.outage.DownRate)
		a.sim.maybeEvacuate(a)
		a.sim.des.After(sampleChurn(a.churnRng, a.outage, a.outage.Down), a.churnFn)
	}
}

// tick alternates the group process. All member arcs transition before
// any evacuation runs, so a failover detour can never be planned through
// a sibling arc that is about to drop in the same instant.
func (g *srlgState) tick() {
	if g.down {
		g.down = false
		for _, a := range g.arcs {
			a.recoverCause(g.outage.Hard(), g.outage.DownRate)
		}
		g.sim.des.After(sampleChurn(g.rng, g.outage, g.outage.Up), g.tickFn)
	} else {
		g.down = true
		g.fail(g.outage.Hard(), g.outage.DownRate)
		g.sim.des.After(sampleChurn(g.rng, g.outage, g.outage.Down), g.tickFn)
	}
}

// fail takes the whole group down in one instant and accounts the
// correlated transition.
func (g *srlgState) fail(hard bool, rate units.BitRate) {
	g.sim.rep.SRLGDownTransitions++
	g.sim.mSRLGTransitions.Inc()
	g.cTransitions.Inc()
	g.sim.emitTrace("srlg_down", 0, g.name, 0, float64(len(g.arcs)))
	for _, a := range g.arcs {
		a.failCause(hard, rate)
	}
	for _, a := range g.arcs {
		g.sim.maybeEvacuate(a)
	}
}

// scheduleCalendar turns a maintenance calendar into exact DES events:
// one fail at each window start, one recover at each end (ends past the
// horizon never fire; finishChurn closes the books). The two callbacks
// are shared across windows. grp is non-nil for an SRLG calendar, whose
// windows count as correlated transitions too.
func (s *Sim) scheduleCalendar(cal topo.CalendarSpec, arcs []*arcState, grp *srlgState) {
	hard, rate := cal.Hard(), cal.DownRate
	fail := func() {
		if grp != nil {
			grp.fail(hard, rate)
			return
		}
		for _, a := range arcs {
			a.failCause(hard, rate)
		}
		for _, a := range arcs {
			s.maybeEvacuate(a)
		}
	}
	restore := func() {
		for _, a := range arcs {
			a.recoverCause(hard, rate)
		}
	}
	for _, w := range cal.Windows {
		s.des.At(w.Start, fail)
		s.des.At(w.End, restore)
	}
}

// sampleChurn draws one phase duration: exact for fixed cycles,
// exponential with the given mean for memoryless churn (floored at 1µs
// so a pathological draw cannot schedule a zero-length phase).
func sampleChurn(rng *rand.Rand, spec topo.OutageSpec, mean time.Duration) time.Duration {
	if spec.Kind == topo.OutageFixed {
		return mean
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

// paused reports whether the serializer must not start a transmission:
// only a hard cause pauses; a degraded arc keeps draining at the minimum
// active soft rate.
func (a *arcState) paused() bool { return a.hardCauses > 0 }

// disrupted reports whether any failure source can take this arc down.
func (a *arcState) disrupted() bool {
	return a.outage.Enabled() || a.calendar.Enabled() || a.grouped
}

// failCause registers one newly active down cause. The first cause of
// any kind takes the arc down (one accounted transition per union down
// phase, exactly as the single-process model counted). The first hard
// cause dooms everything on the wire: the packet mid-serialization (its
// completion event still fires; txDone sees txDoomed and drops it) and
// every packet in the propagation pipe (deliverHead drops the next
// pipeDoomed heads — exact because the pipe is FIFO and the paused
// serializer admits nothing behind them until the hard causes clear).
func (a *arcState) failCause(hard bool, rate units.BitRate) {
	if a.downCauses == 0 {
		a.down = true
		a.downSince = a.sim.des.Now()
		a.sim.rep.ArcDownTransitions++
		a.sim.mDownTransitions.Inc()
		a.cDownTransitions.Inc()
		a.sim.emitTrace("arc_down", 0, a.name, 0, a.occupancyFraction())
	}
	a.downCauses++
	if hard {
		if a.hardCauses == 0 {
			a.wasHard = true
			a.txDoomed = a.busy
			a.pipeDoomed = len(a.pipe) - a.pipeHead
		}
		a.hardCauses++
	} else {
		a.softRates = append(a.softRates, rate)
	}
}

// recoverCause retires one down cause. Clearing the last hard cause
// resumes the serializer even if soft causes remain (at their degraded
// rate); clearing the last cause of all closes the union down phase:
// account it, count the custody-held chunks that survived a hard phase
// (they requeue simply by still being in the store), and kick the
// serializer back to life.
func (a *arcState) recoverCause(hard bool, rate units.BitRate) {
	if hard {
		a.hardCauses--
	} else {
		for i, r := range a.softRates {
			if r == rate {
				a.softRates = append(a.softRates[:i], a.softRates[i+1:]...)
				break
			}
		}
	}
	a.downCauses--
	if a.downCauses > 0 {
		if hard && a.hardCauses == 0 {
			a.kick()
		}
		return
	}
	a.down = false
	downFor := a.sim.des.Now() - a.downSince
	a.sim.rep.ArcDownSeconds += downFor.Seconds()
	a.hDownSeconds.Observe(downFor.Seconds())
	requeued := int64(a.store.Len())
	if a.wasHard && requeued > 0 {
		a.sim.rep.ChunksRequeued += requeued
		a.sim.mRequeued.Add(requeued)
	}
	a.wasHard = false
	a.sim.emitTrace("arc_up", 0, a.name, 0, float64(requeued))
	a.kick()
}

// dropInFlight disposes of a packet lost to a hard outage. Data chunks
// are accounted (the transports' loss-recovery paths — NACK resends,
// RTO, fast re-request — take it from there); lost control packets cost
// nothing beyond the recovery they would have triggered anyway.
func (a *arcState) dropInFlight(p *packet) {
	if p.kind == pktData {
		a.sim.rep.ChunksLostInFlight++
		a.sim.mLostInFlight.Inc()
		a.sim.emitTrace("chunk_lost", p.flowID(), a.name, p.seq, 0)
	}
	a.sim.freePacket(p)
}

// dropRandom disposes of a packet lost to the arc's random per-packet
// loss. Every packet kind is fair game — losing a request or ack
// exercises the reverse-path recovery just as losing data does.
func (a *arcState) dropRandom(p *packet) {
	a.sim.rep.PktsLostRandom++
	a.sim.mPktsLostRandom.Inc()
	a.cPktsLostRandom.Inc()
	if p.kind == pktData {
		a.sim.emitTrace("chunk_lost_random", p.flowID(), a.name, p.seq, 0)
	}
	a.sim.freePacket(p)
}

// finishChurn closes the books at the horizon: an arc still down has an
// open phase whose elapsed part belongs in the report (and histogram),
// or ArcDownSeconds would under-count long-outage runs.
func (s *Sim) finishChurn(until time.Duration) {
	for _, a := range s.arcs {
		if a == nil || !a.down {
			continue
		}
		downFor := until - a.downSince
		s.rep.ArcDownSeconds += downFor.Seconds()
		a.hDownSeconds.Observe(downFor.Seconds())
	}
}
