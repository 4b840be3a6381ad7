package chunknet

import (
	"time"
)

// nackStall is the INRPP receiver's stall threshold: no data for this
// long (with requests outstanding) makes the receiver re-request the
// first missing chunk, and each further epoch of silence re-arms the
// NACK for the same chunk.
const nackStall = 300 * time.Millisecond

// requestLoop is the INRPP receiver: it paces ⟨Nc, ACKc, Ac⟩ requests at
// the estimated data rate, re-requesting stalled chunks via explicit
// NACK-like asks (§3.2: losses are identified by explicit timers or
// NACKs, not by out-of-order delivery).
//
// The loop runs on a lattice: a run at t with interval I is followed by
// one at t+I. A run that sends a request or a NACK schedules the next
// one. An idle run parks the loop (parkLoop): its inputs (the window,
// rateEst, lastData, done) change only in deliver, so every later run
// on the lattice would idle too, until a delivery or the NACK deadline,
// and none is scheduled. deliver wakes the loop (wakeLoop) at the first
// lattice point at or after the delivery. Runs are late DES events
// (des.Simulator.AtLate) ranked by the flow's AddTransfer order: at one
// instant every other event fires first, so a run sees every delivery
// at its instant, and then the runs fire in AddTransfer order.
func (s *Sim) requestLoop(f *flowState) {
	f.parked = false
	if f.done {
		return
	}
	now := s.des.Now()
	req := f.win.Request()
	limit := req.Anticipated
	sent := false
	switch {
	case f.nextReq <= limit && f.nextReq < f.tr.Chunks:
		s.sendRequest(f, f.nextReq, false)
		f.nextReq++
		sent = true
	case f.win.Next() < f.nextReq && now-f.lastData > nackStall:
		// Stalled: re-request the first missing chunk once per stall
		// epoch. The one-shot `missing != f.lastNack` guard alone
		// deadlocked: if the re-request or the resent chunk was itself
		// lost, missing never changed and no second NACK could ever
		// fire. Re-arm once a full stall interval passes with no
		// progress since the last NACK.
		if missing := f.win.Next(); missing != f.lastNack || now-f.nackAt > nackStall {
			f.lastNack = missing
			f.nackAt = now
			s.sendRequest(f, missing, true)
			sent = true
		}
	}
	interval := time.Duration(s.cfg.ChunkSize.Bits() / f.rateEst * float64(time.Second))
	if interval < 10*time.Microsecond {
		interval = 10 * time.Microsecond
	}
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	f.lastAt, f.ivl = now, interval
	if sent {
		s.runAt(f, now+interval)
		return
	}
	s.parkLoop(f)
}

// runAt schedules the loop's next run at t.
func (s *Sim) runAt(f *flowState, t time.Duration) {
	f.tick = s.des.AtLate(t, uint64(f.rank), f.loopFn)
}

// parkLoop parks the loop after an idle run. Without a delivery the
// loop next acts at the first lattice point past the NACK deadline,
// where it runs directly.
func (s *Sim) parkLoop(f *flowState) {
	f.parked = true
	if f.win.Next() >= f.nextReq {
		return // nothing outstanding: no NACK can come due
	}
	due := f.lastData + nackStall
	if f.win.Next() == f.lastNack && f.nackAt > f.lastData {
		due = f.nackAt + nackStall
	}
	s.runAt(f, nackLattice(f.lastAt, f.ivl, due))
}

// wakeLoop follows a delivery to a parked loop: the pending run, if
// any, gives way to one on the first lattice point at or after now,
// and a finished flow's loop stops.
func (s *Sim) wakeLoop(f *flowState) {
	f.tick.Cancel()
	f.parked = false
	if f.done {
		return
	}
	s.runAt(f, nextLattice(f.lastAt, f.ivl, s.des.Now()))
}

// nackLattice is the first point of the lattice t + k·interval (k ≥ 1)
// strictly after due: a run there finds now-lastData > nackStall (and
// now-nackAt > nackStall) with due the later of the two deadlines.
func nackLattice(t, interval, due time.Duration) time.Duration {
	if due < t {
		return t + interval
	}
	return t + ((due-t)/interval+1)*interval
}

// nextLattice returns the first point of the lattice t + k·interval
// (k ≥ 1) at or after now.
func nextLattice(t, interval, now time.Duration) time.Duration {
	if now <= t {
		return t + interval
	}
	return t + (now-t+interval-1)/interval*interval
}
