package chunknet

// This file implements the ARC baseline — adaptive request control: the
// receiver drives the transfer by running AIMD over its request window,
// the way CCN/NDN interest-shaping transports probe for capacity. Like
// INRPP the loop is receiver-driven and chunk-granular; like AIMD it is
// end-to-end resource probing over drop-tail queues — no custody, no
// detours, no back-pressure. On the transport axis of a chunknet sweep it
// is the middle point that separates how much of INRPP's gain comes from
// in-network resource pooling versus from receiver-driven pull alone.
//
// (Not to be confused with arcState in arc.go, which is one direction of
// one link; the name collision is historical — "arc" the graph edge
// predates ARC the transport.)
//
// The stall timer is adaptive: request→data RTTs (first transmissions
// only, per Karn's algorithm) feed an RFC 6298 SRTT/RTTVAR estimator, and
// the timeout is SRTT + 4·RTTVAR with exponential backoff, floored at
// Config.MinRTO and capped at the fixed maxRTO. At small drop-tail
// buffers this recovers from a lost request in a few RTTs instead of a
// coarse 200ms stall.

import "time"

// arcStart opens an ARC flow: prime the request window and arm the stall
// timer.
func (s *Sim) arcStart(f *flowState) {
	s.arcRequestMore(f)
	s.arcResetRTO(f)
}

// arcRequestMore issues requests while the AIMD window has room. Each
// request asks for exactly one chunk; the sender answers with that chunk
// and nothing else. First transmissions are timestamped so the matching
// delivery yields a request→data RTT sample for the adaptive stall timer.
func (s *Sim) arcRequestMore(f *flowState) {
	for f.nextReq < f.tr.Chunks && float64(f.arcOut) < f.cwnd {
		f.reqSent[f.nextReq] = s.des.Now()
		s.sendRequest(f, f.nextReq, false)
		f.nextReq++
		f.arcOut++
	}
}

// arcOnRequest is the ARC sender: answer the requested chunk directly — a
// strict one-request-one-chunk closed loop, with no anticipation horizon
// and no open-loop push.
func (s *Sim) arcOnRequest(p *packet) {
	f := p.f
	if p.resend {
		s.rep.Retransmits++
		s.mRetransmits.Inc()
	}
	s.sendChunkE2E(f, p.seq)
}

// arcOnData runs at the receiver on every delivery: sample the
// request→data RTT (first transmissions only), decrement the outstanding
// count, grow the window (slow start, then congestion avoidance), detect
// holes — three deliveries past a missing chunk trigger a fast
// re-request, the receiver-side analogue of triple duplicate acks — and
// refill the window.
func (s *Sim) arcOnData(f *flowState, seq int64) {
	if sent, ok := f.reqSent[seq]; ok {
		delete(f.reqSent, seq)
		s.arcObserveRTT(f, s.des.Now()-sent)
	}
	if f.arcOut > 0 {
		f.arcOut--
	}
	if f.cwnd < f.ssthresh {
		f.cwnd++
	} else {
		f.cwnd += 1 / f.cwnd
	}
	if seq > f.win.Next() {
		f.dup++
		// One fast re-request (and one window halving) per hole: with a
		// window of in-flight chunks behind a loss, dup would otherwise
		// re-trigger every three deliveries while the first resend is
		// still an RTT away — NewReno's recovery-point idea, keyed here
		// on the hole itself (the lastNack pattern INRPP's receiver
		// uses).
		if f.dup >= 3 && f.win.Next() != f.lastNack {
			f.dup = 0
			f.lastNack = f.win.Next()
			s.arcHalveWindow(f)
			// Karn's algorithm: a re-requested chunk's eventual delivery
			// must not produce an RTT sample — it could answer either
			// transmission.
			delete(f.reqSent, f.win.Next())
			// The re-request reuses the lost request's outstanding slot
			// (that request was counted but its data will never arrive),
			// so arcOut must not grow — mirroring TCP pipe accounting.
			s.sendRequest(f, f.win.Next(), true)
		}
	} else {
		f.dup = 0
	}
	if f.win.Done() {
		f.rto.Cancel()
		return
	}
	s.arcResetRTO(f)
	s.arcRequestMore(f)
}

// arcHalveWindow applies the multiplicative decrease.
func (s *Sim) arcHalveWindow(f *flowState) {
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = f.ssthresh
}

// arcObserveRTT folds one request→data sample into the smoothed estimate
// pair, RFC 6298-style, and releases any timeout backoff — fresh samples
// mean the path is alive again.
func (s *Sim) arcObserveRTT(f *flowState, rtt time.Duration) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		diff := f.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar = (3*f.rttvar + diff) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rtoScale = 0
}

// arcRTO computes the stall timer: SRTT + 4·RTTVAR, doubled per
// consecutive timeout, floored at MinRTO and capped at the fixed RTO —
// the adaptive timer is never slower than the legacy coarse one. Before
// the first sample the fixed RTO stands in.
func (s *Sim) arcRTO(f *flowState) time.Duration {
	if f.srtt == 0 {
		return maxRTO
	}
	rto := f.srtt + 4*f.rttvar
	if rto < s.cfg.MinRTO {
		rto = s.cfg.MinRTO
	}
	for i := uint(0); i < f.rtoScale && rto < maxRTO; i++ {
		rto *= 2
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// arcResetRTO (re)arms the receiver's stall timer.
func (s *Sim) arcResetRTO(f *flowState) {
	f.rto.Cancel()
	f.rto = s.des.After(s.arcRTO(f), f.timeoutFn)
}

// arcTimeout is the stall recovery: collapse the window to one request
// and re-ask for the first missing chunk. When nothing is missing the
// outstanding count merely drifted (a duplicate delivery was discarded),
// so reset it and refill. Each consecutive timeout doubles the adaptive
// timer (up to the fixed RTO cap), so a dead path backs off instead of
// re-requesting at RTT cadence.
func (s *Sim) arcTimeout(f *flowState) {
	if f.done || f.win.Done() {
		return
	}
	s.mRTOFires.Inc()
	s.emitTrace("rto_fire", f.tr.ID, "", f.win.Next(), 0)
	if f.rtoScale < 16 {
		f.rtoScale++
	}
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.dup = 0
	if f.win.Next() < f.nextReq {
		delete(f.reqSent, f.win.Next()) // Karn: the resend answer is ambiguous
		s.sendRequest(f, f.win.Next(), true)
		f.arcOut = 1
	} else {
		f.arcOut = 0
		s.arcRequestMore(f)
	}
	s.arcResetRTO(f)
}
