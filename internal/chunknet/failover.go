package chunknet

// This file implements failover replanning: what INRPP routers do with
// traffic whose nominal next arc is hard-down. The paper's custody
// answer — hold the chunk and wait — is FailoverHold, the PR 9
// behaviour. FailoverReroute instead treats a hard-down arc as
// zero-capacity (measuredResidual reports 0, so the planner and
// pickDetour already refuse it) and actively moves traffic around the
// outage: freshly arriving chunks take a one-hop detour while the arc is
// paused, and the custody backlog trapped behind the failure is
// evacuated through viable detour neighbours at the instant of the hard
// failure. FailoverBoth detours fresh traffic but leaves the backlog in
// custody — reroute for new chunks, hold for old.
//
// Evacuation never trades custody for a drop: a chunk leaves the store
// only if a viable detour exists, the chunk still has detour budget, and
// the detour arc's store has room for it. Viability is capacity-blind —
// an evacuation is a custody transfer, absorbed by the neighbour's store
// rather than its spare wire capacity, so any un-paused one-hop detour
// with store room qualifies even when its serializer is saturated
// (fresh-traffic failover detours keep pickDetour's residual gate). The
// first chunk that cannot move stops the drain (the store is strict
// FIFO), and whatever stays behind simply waits for recovery, exactly as
// under FailoverHold.

import (
	"fmt"
	"strings"

	"repro/internal/topo"
)

// FailoverMode selects the recovery strategy for traffic whose nominal
// next arc is hard-down.
type FailoverMode int

// The three strategies.
const (
	// FailoverHold keeps chunks in custody until the arc recovers — the
	// paper's pure store-and-wait contract (default).
	FailoverHold FailoverMode = iota
	// FailoverReroute detours fresh chunks around a hard-down arc and
	// evacuates its custody backlog through detour neighbours on failure.
	FailoverReroute
	// FailoverBoth detours fresh chunks but holds the existing backlog in
	// custody.
	FailoverBoth
)

// String names the mode in the form ParseFailoverMode accepts.
func (m FailoverMode) String() string {
	switch m {
	case FailoverHold:
		return "hold"
	case FailoverReroute:
		return "reroute"
	case FailoverBoth:
		return "both"
	default:
		return fmt.Sprintf("FailoverMode(%d)", int(m))
	}
}

// ParseFailoverMode maps a strategy name to its FailoverMode,
// case-insensitively. The empty string parses as FailoverHold.
func ParseFailoverMode(s string) (FailoverMode, error) {
	switch strings.ToLower(s) {
	case "", "hold":
		return FailoverHold, nil
	case "reroute":
		return FailoverReroute, nil
	case "both":
		return FailoverBoth, nil
	}
	return 0, fmt.Errorf("chunknet: unknown failover mode %q (known: hold, reroute, both)", s)
}

// failoverDetour reports whether a freshly arriving chunk should attempt
// a detour around arc a because the arc is hard-down and the config asks
// for rerouting. Distinct from the congestion-phase detour test
// (shouldDetour): a paused interface never reaches the detour phase on
// its own, since a dead arc measures no anticipated load.
func (s *Sim) failoverDetour(a *arcState) bool {
	return s.cfg.Failover != FailoverHold && a.paused()
}

// maybeEvacuate runs custody evacuation on an arc that just transitioned;
// a no-op unless the config selects FailoverReroute, the transport is
// INRPP (only INRPP has detours), and the arc is actually hard-down.
func (s *Sim) maybeEvacuate(a *arcState) {
	if s.cfg.Failover != FailoverReroute || s.cfg.Transport != INRPP || !a.paused() {
		return
	}
	s.evacuate(a)
}

// evacuate drains the hard-down arc's custody backlog through one-hop
// detour neighbours, in store FIFO order. Each moved chunk is re-spliced
// to tunnel through the detour node and rejoin its route at the arc's
// far end, spending one unit of its detour budget, and is re-offered to
// the detour arc only after a room check so the move can never become a
// drop. The drain stops at the first chunk that cannot move.
func (s *Sim) evacuate(a *arcState) {
	for a.store.Len() > 0 {
		p := a.pktq[a.pktHead]
		if p.detourBudget <= 0 {
			return
		}
		d, ok := s.pickEvacuation(a, p)
		if !ok {
			return
		}
		via := d.to
		a.popStored()
		p.detourBudget--
		if !p.detoured {
			p.detoured = true
			s.rep.ChunksDetoured++
		}
		s.rep.DetourFailovers++
		s.rep.ChunksEvacuated++
		s.mDetoured.Inc()
		s.mDetourFailovers.Inc()
		s.mEvacuated.Inc()
		// Tunnel through via and rejoin at the original next hop (p.rest
		// still begins with a.to), staged through the sim scratch path
		// like forwardData's splice.
		s.pathScratch = append(s.pathScratch[:0], p.rest[1:]...)
		p.rest = append(p.rest[:0], via, a.to)
		p.rest = append(p.rest, s.pathScratch...)
		d.cDetourBytes.Add(int64(p.size))
		s.emitTrace("evacuate", p.flowID(), d.name, p.seq, 0)
		d.send(p)
	}
}

// routeControl sends a control packet toward its next hop (p.rest[0]),
// rerouting it around a hard-down arc under a reroute failover mode: the
// packet is spliced through an un-paused one-hop detour exactly like
// failover data. Requests and NACKs keep flowing while their nominal arc
// is paused — without this the receiver's request stream (and with it
// the request-driven sender) would stall behind the very outage the
// failover is meant to route around.
func (s *Sim) routeControl(node topo.NodeID, p *packet) {
	next := p.rest[0]
	a := s.arcFor(node, next)
	if s.cfg.Transport == INRPP && s.failoverDetour(a) {
		if via, ok := s.pickControlReroute(a, p.seq); ok {
			s.pathScratch = append(s.pathScratch[:0], p.rest[1:]...)
			p.rest = append(p.rest[:0], via, next)
			p.rest = append(p.rest, s.pathScratch...)
			a = s.arcFor(node, via)
		}
	}
	a.send(p)
	p.prevHop = node
}

// pickControlReroute selects an un-paused one-hop detour for a control
// packet stranded behind a hard-down arc. Control traffic bypasses the
// data store, so the only requirement is that both detour arcs are up.
func (s *Sim) pickControlReroute(a *arcState, seq int64) (topo.NodeID, bool) {
	viable := s.detourScratch[:0]
	for _, sub := range s.planner.Candidates(a.arc.Link, a.arc.Dir) {
		if sub.Extra != 1 {
			continue
		}
		via := sub.Path[1]
		if !s.arcFor(a.from, via).paused() && !s.arcFor(via, a.to).paused() {
			viable = append(viable, via)
		}
	}
	s.detourScratch = viable
	if len(viable) == 0 {
		return 0, false
	}
	return viable[int(seq)%len(viable)], true
}

// pickEvacuation selects the detour arc for draining custody off a
// hard-down arc, spreading consecutive chunks across candidates like
// pickDetour. Unlike pickDetour it ignores measured residual: the
// receiving store, not the wire, absorbs an evacuation, so a candidate
// qualifies whenever both detour arcs are un-paused and the first hop's
// store has room for the chunk.
func (s *Sim) pickEvacuation(a *arcState, p *packet) (*arcState, bool) {
	viable := s.detourScratch[:0]
	for _, sub := range s.planner.Candidates(a.arc.Link, a.arc.Dir) {
		if sub.Extra != 1 {
			continue
		}
		via := sub.Path[1]
		out := s.arcFor(a.from, via)
		back := s.arcFor(via, a.to)
		if !out.paused() && !back.paused() && out.store.Capacity()-out.store.Used() >= p.size {
			viable = append(viable, via)
		}
	}
	s.detourScratch = viable
	if len(viable) == 0 {
		return nil, false
	}
	return s.arcFor(a.from, viable[int(p.seq)%len(viable)]), true
}
