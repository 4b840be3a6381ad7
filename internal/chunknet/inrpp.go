package chunknet

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/units"
)

// flowState carries the endpoint state of one transfer for both
// transports.
type flowState struct {
	tr       Transfer
	dataPath route.Path // src → dst
	reqPath  route.Path // dst → src
	win      *core.Window

	// Receiver side (INRPP): request pacing tracks the data arrival rate
	// (§3.2, "the receiver continuously adjusts its requesting rate to
	// the incoming data rate").
	rateEst  float64 // bits/s EWMA
	lastData time.Duration
	nextReq  int64 // next chunk to request
	lastNack int64
	nackAt   time.Duration // when lastNack was sent (INRPP re-arm)
	done     bool
	// The request loop (loop.go): parked is set while it idles on its
	// lattice, with at most its NACK run pending; rank is the flow's
	// index in AddTransfer order, its runs' rank in the DES; tick is the
	// pending run; the last run was at lastAt with interval ivl.
	parked      bool
	rank        uint32
	tick        des.Timer
	lastAt, ivl time.Duration

	// Sender side (INRPP).
	highestReq int64 // highest chunk covered by requests (incl. Ac)
	nextSend   int64
	resendQ    []int64
	closedLoop bool
	credits    int64 // closed loop: one chunk per arriving request

	// AIMD sender / ARC receiver congestion state. cwnd, ssthresh, dup
	// and rto are shared: AIMD runs the loop at the sender over data,
	// ARC at the receiver over requests; a flow only ever uses one.
	cwnd     float64
	ssthresh float64
	aimdNext int64
	lastCum  int64
	dup      int
	rto      des.Timer

	// ARC receiver: requests issued but not yet answered by data.
	arcOut int64

	// Pre-bound callbacks, so re-arming the request loop or an RTO timer
	// does not allocate a fresh closure per event.
	loopFn    func()
	timeoutFn func()
	// ARC adaptive RTO state (RFC 6298 over request→data samples): the
	// send time of each outstanding first-transmission request (resends
	// are never sampled — Karn's algorithm), the smoothed RTT estimate
	// pair, and the exponential timeout backoff applied after each stall.
	reqSent  map[int64]time.Duration
	srtt     time.Duration
	rttvar   time.Duration
	rtoScale uint
}

// arrive dispatches a packet that reached the far end of arc a. Packets
// that terminate here (delivered data, consumed requests/acks, control
// notifications) return to the pool once their handler is done.
func (s *Sim) arrive(p *packet, a *arcState) {
	node := a.to
	if len(p.rest) > 0 && p.rest[0] == node {
		// Shift down rather than reslice, so the route keeps its backing
		// array from the start: a packet recycled at delivery then still
		// has the capacity for its next route (routes are a few nodes).
		p.rest = p.rest[:copy(p.rest, p.rest[1:])]
	}
	switch p.kind {
	case pktData:
		if len(p.rest) == 0 {
			s.deliver(p)
			s.freePacket(p)
			return
		}
		s.forwardData(p, node)
	case pktRequest:
		if len(p.rest) == 0 {
			s.onRequest(p)
			s.freePacket(p)
			return
		}
		s.forwardRequest(p, node)
	case pktAck:
		if len(p.rest) == 0 {
			s.onAck(p)
			s.freePacket(p)
			return
		}
		s.forwardControl(p, node)
	case pktBpOn:
		s.onBackpressureOn(p, node)
		s.freePacket(p)
	case pktBpOff:
		s.onBackpressureOff(p, node)
		s.freePacket(p)
	}
}

// forwardData routes a data chunk one hop further, applying the detour
// phase when the nominal outgoing interface is congested (§3.3) or —
// under a reroute failover mode — when the interface is hard-down.
func (s *Sim) forwardData(p *packet, node topo.NodeID) {
	next := p.rest[0]
	a := s.arcFor(node, next)
	failover := s.cfg.Transport == INRPP && s.failoverDetour(a)
	if s.cfg.Transport == INRPP && (s.shouldDetour(a) || failover) && p.detourBudget > 0 {
		if via, ok := s.pickDetour(a, p); ok {
			p.detourBudget--
			if !p.detoured {
				p.detoured = true
				s.rep.ChunksDetoured++
			}
			if failover {
				s.rep.DetourFailovers++
				s.mDetourFailovers.Inc()
			}
			// Tunnel through via, rejoining the route at next. Rebuilt in
			// place through the sim's scratch path, so detouring — the
			// congested regime — stays allocation-free like plain
			// forwarding.
			s.pathScratch = append(s.pathScratch[:0], p.rest[1:]...)
			p.rest = append(p.rest[:0], via, next)
			p.rest = append(p.rest, s.pathScratch...)
			a = s.arcFor(node, via)
			s.mDetoured.Inc()
			a.cDetourBytes.Add(int64(p.size))
			s.emitTrace("detour", p.flowID(), a.name, p.seq, 0)
		}
	}
	// send() reads prevHop as the upstream to back-pressure, so update it
	// only afterwards (same call stack: the stored packet carries the new
	// value downstream). A dropped packet belongs to us again: recycle.
	if !a.send(p) {
		s.freePacket(p)
		return
	}
	p.prevHop = node
}

// shouldDetour reports whether the arc's interface is in the detour phase
// with actual backlog to shift.
func (s *Sim) shouldDetour(a *arcState) bool {
	return a.iface.Phase() == core.PhaseDetour && (a.busy || a.store.Len() > 0)
}

// pickDetour selects a one-hop detour neighbour around arc a with the
// most spare measured capacity, spreading consecutive chunks across
// viable candidates (the flowlet splitting of §3.3). Only one-hop
// candidates qualify: the extra hop budget is the packet's to spend.
func (s *Sim) pickDetour(a *arcState, p *packet) (topo.NodeID, bool) {
	// The candidate list lives in a sim-level scratch slice: pickDetour
	// runs per forwarded chunk in the congested regime, where a fresh
	// slice per call would break forwardData's allocation-free promise.
	viable := s.detourScratch[:0]
	for _, sub := range s.planner.Candidates(a.arc.Link, a.arc.Dir) {
		if sub.Extra != 1 {
			continue
		}
		via := sub.Path[1]
		out := s.arcFor(a.from, via)
		back := s.arcFor(via, a.to)
		if out.measuredResidual() > 0 && back.measuredResidual() > 0 {
			viable = append(viable, via)
		}
	}
	s.detourScratch = viable
	if len(viable) == 0 {
		return 0, false
	}
	return viable[int(p.seq)%len(viable)], true
}

// forwardRequest records the request at this router's estimator (eq. 1)
// and forwards it toward the content source.
func (s *Sim) forwardRequest(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	if ns.est != nil {
		if dataIface := ns.ifaceTo[p.prevHop]; dataIface >= 0 {
			ns.est.RecordRequest(dataIface, 1)
		}
	}
	s.routeControl(node, p)
}

// forwardControl moves acks and other control packets along their path.
func (s *Sim) forwardControl(p *packet, node topo.NodeID) {
	s.routeControl(node, p)
}

// deliver hands a data chunk to its receiver. It is the only event that
// changes the request loop's inputs, so it is also what wakes a parked
// loop. AIMD and ARC flows have no loop and are never parked.
func (s *Sim) deliver(p *packet) {
	f := p.f
	now := s.des.Now()
	if !f.win.OnData(p.seq) {
		return // duplicate
	}
	s.rep.ChunksDelivered++
	s.mDelivered.Inc()
	// Track the incoming data rate for request pacing.
	gap := (now - f.lastData).Seconds()
	if f.lastData > 0 && gap > 0 {
		sample := s.cfg.ChunkSize.Bits() / gap
		f.rateEst = 0.75*f.rateEst + 0.25*sample
	}
	f.lastData = now
	switch s.cfg.Transport {
	case AIMD:
		s.aimdAckData(f)
	case ARC:
		s.arcOnData(f, p.seq)
	}
	if f.win.Done() && !f.done {
		f.done = true
		s.undone--
		s.rep.Completions[f.tr.ID] = now - f.tr.Start
		s.mCompleted.Inc()
		s.emitTrace("transfer_done", f.tr.ID, "", 0, (now - f.tr.Start).Seconds())
	}
	if f.parked {
		s.wakeLoop(f)
	}
}

func (s *Sim) sendRequest(f *flowState, seq int64, resend bool) {
	p := s.newPacket()
	p.kind = pktRequest
	p.f = f
	p.seq = seq
	p.size = requestSize
	p.rest = append(p.rest, f.reqPath[1:]...)
	p.prevHop = f.tr.Dst
	p.resend = resend
	if len(f.reqPath) == 1 {
		// Degenerate: source and receiver on the same node.
		s.onRequest(p)
		s.freePacket(p)
		return
	}
	s.routeControl(f.tr.Dst, p)
}

// onRequest is the INRPP sender's request handler: extend the pushed
// horizon by the anticipation window, grant a closed-loop credit, queue
// explicit resends, and kick the outgoing serializer. ARC requests take
// their own strict one-request-one-chunk path.
func (s *Sim) onRequest(p *packet) {
	if s.cfg.Transport == ARC {
		s.arcOnRequest(p)
		return
	}
	f := p.f
	horizon := p.seq + s.cfg.Anticipation
	if horizon > f.tr.Chunks-1 {
		horizon = f.tr.Chunks - 1
	}
	if horizon > f.highestReq {
		f.highestReq = horizon
	}
	if p.resend && p.seq < f.nextSend {
		f.resendQ = append(f.resendQ, p.seq)
	}
	if f.closedLoop {
		f.credits++
	}
	s.kickSender(f)
}

// kickSender pokes the sender's outgoing arc so the pull scheduler runs.
func (s *Sim) kickSender(f *flowState) {
	if len(f.dataPath) < 2 {
		// Same-node transfer: deliver directly.
		for {
			seq, ok := s.senderNextSeq(f)
			if !ok {
				return
			}
			p := s.makeDataPacket(f, seq)
			s.deliver(p)
			s.freePacket(p)
		}
	}
	s.arcFor(f.tr.Src, f.dataPath[1]).kick()
}

// nextSenderChunk is the open-loop push scheduler: when a sender-adjacent
// arc goes idle it pulls the next chunk, round-robin across the flows
// rooted at that node — processor sharing at chunk granularity (§3.2).
func (s *Sim) nextSenderChunk(a *arcState) *packet {
	if s.cfg.Transport != INRPP {
		return nil
	}
	node := s.nodes[a.from]
	n := len(node.senders)
	for i := 0; i < n; i++ {
		f := node.senders[(node.schedRR+i)%n]
		if len(f.dataPath) < 2 || f.dataPath[1] != a.to {
			continue // this flow leaves through a different interface
		}
		seq, ok := s.senderNextSeq(f)
		if !ok {
			continue
		}
		node.schedRR = (node.schedRR + i + 1) % n
		return s.makeDataPacket(f, seq)
	}
	return nil
}

// senderNextSeq yields the next chunk a sender may push for flow f:
// explicit resends first, then sequential chunks up to the requested
// horizon (open loop) or per credit (closed loop).
func (s *Sim) senderNextSeq(f *flowState) (int64, bool) {
	if len(f.resendQ) > 0 {
		seq := f.resendQ[0]
		f.resendQ = f.resendQ[1:]
		s.rep.Retransmits++
		s.mRetransmits.Inc()
		return seq, true
	}
	if f.nextSend >= f.tr.Chunks || f.nextSend > f.highestReq {
		return 0, false
	}
	if f.closedLoop {
		if f.credits <= 0 {
			return 0, false
		}
		f.credits--
	}
	seq := f.nextSend
	f.nextSend++
	return seq, true
}

func (s *Sim) makeDataPacket(f *flowState, seq int64) *packet {
	s.rep.ChunksSent++
	s.mSent.Inc()
	p := s.newPacket()
	p.kind = pktData
	p.f = f
	p.seq = seq
	p.size = s.cfg.ChunkSize
	p.rest = append(p.rest, f.dataPath[1:]...)
	p.prevHop = f.tr.Src
	p.detourBudget = 1
	return p
}

// checkBackpressure fires the back-pressure phase when a store crosses
// its high watermark: the congested node explicitly informs the one-hop
// upstream neighbour that delivered the triggering chunk (§3.3).
func (s *Sim) checkBackpressure(a *arcState, p *packet) {
	if s.cfg.Transport != INRPP {
		return
	}
	if a.occupancyFraction() < bpHigh {
		return
	}
	up := p.prevHop
	if up == a.from || slices.Contains(a.bpNotified, up) {
		return
	}
	a.bpActive = true
	a.bpNotified = append(a.bpNotified, up)
	s.rep.BackpressureOn++
	s.mBpOn.Inc()
	s.emitTrace("backpressure_on", p.flowID(), a.name, p.seq, a.occupancyFraction())
	// Ask the upstream for the store's drain rate: conservative, so the
	// occupancy stops growing immediately. (Asking for the drain rate plus
	// free custody bits / horizon would let the remaining headroom keep
	// absorbing, but that allowance is only safe if re-signalled every
	// horizon; a one-shot notification must not over-promise.)
	p2 := s.newPacket()
	p2.kind = pktBpOn
	p2.size = requestSize
	p2.bpArc = a.arc
	p2.bpRate = a.baseRate
	s.sendControl(a.from, up, p2)
}

// sendControl sends a one-hop control packet from node from to its
// neighbour to.
func (s *Sim) sendControl(from, to topo.NodeID, p *packet) {
	p.prevHop = from
	p.rest = append(p.rest[:0], to)
	s.arcFor(from, to).send(p)
}

// onBackpressureOn handles a slow-down notification at the upstream node:
// senders flip the affected flows into closed-loop mode; transit nodes
// throttle their arc toward the congested node, which (as their own
// stores fill) propagates the pressure naturally one hop at a time.
func (s *Sim) onBackpressureOn(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	congested := p.bpArc
	for _, f := range ns.senders {
		if !f.closedLoop && pathUsesArc(s.g, f.dataPath, congested) {
			f.closedLoop = true
			s.rep.ClosedLoopEntries++
		}
	}
	// Throttle the arc feeding the congested node.
	a := s.arcFor(node, p.prevHop)
	if !a.limited {
		a.limited = true
		a.capRate = p.bpRate
		if a.capRate > a.baseRate {
			a.capRate = a.baseRate
		}
	}
}

// onBackpressureOff releases throttles and closed loops set by a previous
// notification from the same neighbour.
func (s *Sim) onBackpressureOff(p *packet, node topo.NodeID) {
	ns := s.nodes[node]
	for _, f := range ns.senders {
		if f.closedLoop && pathUsesArc(s.g, f.dataPath, p.bpArc) {
			f.closedLoop = false
			s.kickSender(f)
		}
	}
	a := s.arcFor(node, p.prevHop)
	if a.limited {
		a.limited = false
		a.capRate = a.baseRate
		a.kick()
	}
}

// rateEWMA smooths per-tick rate measurements: a single measurement
// window Ti can hold a fraction of a chunk on slow links, so raw
// per-window rates quantise badly (0 or huge). Smoothing recovers the
// mean the paper's routers would sample.
const rateEWMA = 0.25

// tickEstimators closes the measurement interval on every router:
// anticipated rates from eq. 1, measured arc throughput for neighbour
// state, and the phase update of every interface. The planner is asked
// for a detour only where the interface is congested, the one case in
// which Update reads the answer. HasDetour reads the lastRate of the
// arcs this tick has already updated, so the arc order is part of the
// result.
func (s *Sim) tickEstimators() {
	tiSec := s.cfg.Ti.Seconds()
	for _, ns := range s.nodes {
		if ns.est == nil {
			continue
		}
		ns.est.Tick(s.des.Now())
		for iface, idx := range ns.arcIdx {
			a := s.arcs[idx]
			instant := units.BitRate(a.sentBits / tiSec)
			a.lastRate += units.BitRate(rateEWMA) * (instant - a.lastRate)
			a.sentBits = 0
			instantAnt := ns.est.AnticipatedRate(core.IfaceID(iface))
			a.antRate += units.BitRate(rateEWMA) * (instantAnt - a.antRate)
			hasDetour := a.iface.Congested(a.antRate) && s.planner.HasDetour(a.arc, s.residualFn)
			a.iface.Update(a.antRate, hasDetour)
		}
	}
}

// drained reports whether no data packet can be created any more: every
// transfer is done, no packet is alive, and no sender holds a queued
// resend. Nothing reads an interface's phase or rates after that, so the
// estimator ticks stop.
func (s *Sim) drained() bool {
	if s.undone > 0 || s.livePkts > 0 {
		return false
	}
	for _, f := range s.flows {
		if len(f.resendQ) > 0 {
			return false
		}
	}
	return true
}

// pathUsesArc reports whether the path traverses the given directed arc.
func pathUsesArc(g *topo.Graph, p route.Path, arc topo.Arc) bool {
	for i := 0; i+1 < len(p); i++ {
		l, ok := g.LinkBetween(p[i], p[i+1])
		if !ok {
			continue
		}
		if l.ID == arc.Link && l.DirectionFrom(p[i]) == arc.Dir {
			return true
		}
	}
	return false
}
