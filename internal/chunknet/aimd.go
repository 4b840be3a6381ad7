package chunknet

// This file implements the TCP-Reno-flavoured AIMD baseline: a sender-
// driven sliding window with slow start, additive increase, fast
// retransmit on triple duplicate acks and a coarse retransmission
// timeout, over the same links — whose stores act as plain drop-tail
// buffers in this mode. It is the "closed feedback loop … resource
// probing" design the paper argues against (§2.1), used as the
// comparison point in the custody/back-pressure experiment.

// aimdStart opens the flow: slow-start from a small window.
func (s *Sim) aimdStart(f *flowState) {
	s.aimdTrySend(f)
	s.aimdResetRTO(f)
}

// aimdTrySend pushes data while the window allows.
func (s *Sim) aimdTrySend(f *flowState) {
	for f.aimdNext < f.tr.Chunks && float64(f.aimdNext-f.lastCum) <= f.cwnd {
		s.sendChunkE2E(f, f.aimdNext)
		f.aimdNext++
	}
}

// sendChunkE2E pushes one chunk end-to-end along the flow's single path,
// with no detour budget — the send primitive shared by the AIMD and ARC
// baselines, which never pool in-network resources.
func (s *Sim) sendChunkE2E(f *flowState, seq int64) {
	p := s.makeDataPacket(f, seq)
	p.detourBudget = 0
	if len(f.dataPath) < 2 {
		s.deliver(p)
		s.freePacket(p)
		return
	}
	if !s.arcFor(f.tr.Src, f.dataPath[1]).send(p) {
		s.freePacket(p)
	}
}

// aimdAckData runs at the receiver when a chunk arrives: send a
// cumulative ack back to the sender.
func (s *Sim) aimdAckData(f *flowState) {
	p := s.newPacket()
	p.kind = pktAck
	p.f = f
	p.cum = f.win.Next() - 1
	p.size = requestSize
	p.rest = append(p.rest, f.reqPath[1:]...)
	p.prevHop = f.tr.Dst
	if len(f.reqPath) < 2 {
		s.onAck(p)
		s.freePacket(p)
		return
	}
	s.arcFor(f.tr.Dst, f.reqPath[1]).send(p)
}

// onAck is the AIMD sender's ack handler: window growth on progress,
// fast retransmit on triple duplicates.
func (s *Sim) onAck(p *packet) {
	f := p.f
	if f.done && f.win.Done() {
		return
	}
	if p.cum > f.lastCum {
		f.lastCum = p.cum
		f.dup = 0
		if f.cwnd < f.ssthresh {
			f.cwnd++ // slow start
		} else {
			f.cwnd += 1 / f.cwnd // congestion avoidance
		}
		s.aimdResetRTO(f)
		s.aimdTrySend(f)
		return
	}
	f.dup++
	if f.dup >= 3 {
		f.dup = 0
		f.ssthresh = f.cwnd / 2
		if f.ssthresh < 2 {
			f.ssthresh = 2
		}
		f.cwnd = f.ssthresh
		s.aimdRetransmit(f)
	}
}

// aimdRetransmit resends the first unacknowledged chunk.
func (s *Sim) aimdRetransmit(f *flowState) {
	seq := f.lastCum + 1
	if seq >= f.tr.Chunks || f.win.Received(seq) {
		return
	}
	s.rep.Retransmits++
	s.mRetransmits.Inc()
	s.sendChunkE2E(f, seq)
	s.aimdResetRTO(f)
}

// aimdResetRTO (re)arms the retransmission timeout.
func (s *Sim) aimdResetRTO(f *flowState) {
	f.rto.Cancel()
	f.rto = s.des.After(maxRTO, f.timeoutFn)
}

// aimdTimeout is the coarse timeout: collapse to one segment and go back
// to the first unacked chunk.
func (s *Sim) aimdTimeout(f *flowState) {
	if f.done {
		return
	}
	s.mRTOFires.Inc()
	s.emitTrace("rto_fire", f.tr.ID, "", f.lastCum+1, 0)
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.aimdNext = f.lastCum + 1
	s.aimdRetransmit(f)
}
