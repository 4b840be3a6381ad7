package chunknet

import (
	"math/bits"
	"time"

	"repro/internal/des"
	"repro/internal/units"
)

// nackStall is the INRPP receiver's stall threshold: no data for this
// long (with requests outstanding) makes the receiver re-request the
// first missing chunk, and each further epoch of silence re-arms the
// NACK for the same chunk.
const nackStall = 300 * time.Millisecond

// loopSegs is how many lattice stretches a request loop remembers.
const loopSegs = 6

// loopSeg is a stretch of a request loop's lattice with one interval:
// runs at at, at+ivl, at+2·ivl, … up to the next stretch's start.
type loopSeg struct{ at, ivl time.Duration }

// loopState schedules one INRPP receiver's request loop (requestLoop).
type loopState struct {
	// parked: the loop idles on the lattice lastAt + k·parkIvl with no
	// run pending, or only its NACK lead-in. parkKey is the key polling
	// gave the lattice's first point.
	parked bool
	// tickFresh marks a pending run whose key was not taken where polling
	// took it (one interval earlier, at the run before).
	tickFresh bool
	// lastFresh and lastIdle describe the latest run, at lastAt: whether
	// its key was fresh and whether it sent nothing.
	lastFresh, lastIdle bool
	// order is the transfer's position in AddTransfer order, the order
	// the first runs fire in; the loop is rx.loops[idx].
	order, idx int32
	// The stretches of the lattice since the first run: stretch i, for
	// lo ≤ i < nsegs, starts at segAt[i%loopSegs] with interval
	// segIvl[i%loopSegs].
	lo, nsegs int32
	segAt     [loopSegs]time.Duration
	segIvl    [loopSegs]int32
	parkIvl   time.Duration
	parkKey   des.Key
	// tick is the pending run (zero when none) under tickKey, on a
	// lattice of interval tickIvl.
	tick    des.Timer
	tickKey des.Key
	tickIvl time.Duration
	lastAt  time.Duration
	rx      *rxLoops
}

// rxLoops is the request-loop bookkeeping of a node that receives INRPP
// transfers, whose loops send on the node's arcs.
type rxLoops struct {
	// loops holds each loop with the time of its pending run (noRun
	// for none); fresh counts the runs pending under a fresh key. count
	// counts the pending runs per hash slot of their time (slot): a
	// slot holding one run rules out a tie at that instant without
	// scanning loops. It is nil while fewer than two loops are received.
	loops []rxLoop
	fresh int
	count []uint16
	shift uint
}

// rxLoop is one received flow and the time of its loop's pending run.
type rxLoop struct {
	f  *flowState
	at time.Duration
}

// noRun marks a loop with no run pending in rxLoop.at.
const noRun = time.Duration(-1)

// add registers f's loop.
func (rx *rxLoops) add(f *flowState) {
	f.loop.rx, f.loop.idx = rx, int32(len(rx.loops))
	rx.loops = append(rx.loops, rxLoop{f, noRun})
	if n := len(rx.loops); n > 1 && 4*n > len(rx.count) {
		// Keep about 1/16 of the slots pending, so a slot seldom holds
		// two runs at different instants. No run is pending before Run,
		// so the counts start from zero.
		b := uint(bits.Len(uint(16*n - 1)))
		rx.count, rx.shift = make([]uint16, 1<<b), 64-b
	}
}

// slot hashes a run time into count.
func (rx *rxLoops) slot(t time.Duration) int {
	return int(uint64(t) * 0x9e3779b97f4a7c15 >> rx.shift)
}

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
// lattice point whose run would have seen the delivery. So the loop
// acts at exactly the times a loop polling every interval did. What
// remains is the order among events at one instant, which the DES takes
// from the order their keys were taken in: a polling run took its key
// one interval earlier, at the run before it. The cases:
//
//   - A run scheduled from a run (it sent something, or it is the
//     lattice's first point after a park) takes its key where polling
//     did.
//   - A delivery on the parked lattice's first point: the key reserved at
//     the park says whether polling's run fired before it.
//   - A delivery on a later lattice point: tickBeforeArrival decides from
//     the interval, the arc delay and the serialisation time.
//   - A second delivery at the instant of a run woken with a fresh key:
//     loopBeforeData runs the loop first when polling's run came first.
//   - The NACK: parkLoop schedules the idle run one interval before it,
//     whose re-park takes the NACK's key where polling did; a delivery
//     at that lead-in's instant that polling ordered first makes it run
//     again (wakeLoop).
//   - Runs of different flows at one instant, which share the receiver's
//     outgoing arcs: orderLoops re-keys them into polling's order, which
//     loopBefore works out from each loop's recent lattice stretches.
func (s *Sim) requestLoop(f *flowState) {
	l := f.loop
	l.parked = false
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
	l.noteRun(now, interval)
	l.lastAt, l.lastIdle = now, !sent
	if sent {
		s.runOn(f, s.des.Reserve(now+interval), interval, false)
		return
	}
	s.parkLoop(f, now, interval)
}

// loopEvent is the loop's DES callback (bound as f.loopFn).
func (s *Sim) loopEvent(f *flowState) {
	f.loop.lastFresh = f.loop.tickFresh
	s.disarm(f)
	s.requestLoop(f)
}

// runLoopNow runs the loop inline in place of its pending run, standing
// in for a run polling would have fired at this instant.
func (s *Sim) runLoopNow(f *flowState) {
	s.disarm(f)
	f.loop.lastFresh = true
	s.requestLoop(f)
}

// parkLoop parks the loop after an idle run at t. The key polling gave
// the run at t+interval is reserved now, so a run scheduled there
// later fires exactly where polling's would have. Without a delivery
// the loop next acts at the first lattice point past the NACK deadline.
// The run one interval before it is scheduled instead, the NACK's
// lead-in: it idles and parks again, and that park takes the NACK's
// key where polling took it. A lead-in at t+interval is simply the
// loop armed as polling would arm it, so the loop is not parked.
func (s *Sim) parkLoop(f *flowState, t, interval time.Duration) {
	l := f.loop
	l.parked = true
	l.parkIvl = interval
	l.parkKey = s.des.Reserve(t + interval)
	if f.win.Next() >= f.nextReq {
		return // nothing outstanding: no NACK can come due
	}
	due := f.lastData + nackStall
	if f.win.Next() == f.lastNack && f.nackAt > f.lastData {
		due = f.nackAt + nackStall
	}
	l.parked = !s.runAt(f, max(nackLattice(t, interval, due)-interval, t+interval))
}

// runAt schedules the parked loop's run on lattice point at: under the
// key reserved at the park when at is the lattice's first point, under
// a fresh key otherwise. It reports whether the key is polling's.
func (s *Sim) runAt(f *flowState, at time.Duration) bool {
	l := f.loop
	if at == l.lastAt+l.parkIvl {
		s.runOn(f, l.parkKey, l.parkIvl, false)
		return true
	}
	s.runOn(f, s.des.Reserve(at), l.parkIvl, true)
	return false
}

// runOn schedules the loop's next run under key k, on a lattice of
// interval ivl, and puts the receiver's runs at that instant into
// polling's order. Runs under polling's own keys are already in it, so
// only a fresh key, or a receiver with one pending, needs orderLoops.
func (s *Sim) runOn(f *flowState, k des.Key, ivl time.Duration, fresh bool) {
	s.arm(f, k, ivl, fresh)
	if rx := f.loop.rx; rx.count != nil && (fresh || rx.fresh > 0) && rx.count[rx.slot(k.At())] > 1 {
		s.orderLoops(rx, k.At())
	}
}

// arm puts the loop's run into the DES under key k.
func (s *Sim) arm(f *flowState, k des.Key, ivl time.Duration, fresh bool) {
	l := f.loop
	l.tick = s.des.AtKey(k, f.loopFn)
	l.tickKey, l.tickIvl, l.tickFresh = k, ivl, fresh
	rx := l.rx
	rx.loops[l.idx].at = k.At()
	if rx.count != nil {
		rx.count[rx.slot(k.At())]++
	}
	if fresh {
		rx.fresh++
	}
}

// disarm drops the loop's pending run (a no-op on one already fired).
func (s *Sim) disarm(f *flowState) {
	l := f.loop
	l.tick.Cancel()
	rx := l.rx
	if at := rx.loops[l.idx].at; at != noRun && rx.count != nil {
		rx.count[rx.slot(at)]--
	}
	rx.loops[l.idx].at = noRun
	if l.tickFresh {
		rx.fresh--
	}
	l.tick, l.tickFresh = des.Timer{}, false
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
// (k ≥ 1) at or after now, and whether it is now itself.
func nextLattice(t, interval, now time.Duration) (time.Duration, bool) {
	if now <= t {
		return t + interval, false
	}
	k := (now - t + interval - 1) / interval
	at := t + k*interval
	return at, at == now
}

// tickBeforeArrival reports whether the polling loop's run on a lattice
// point fired before a data arrival at the same instant. Equal-time
// events fire in the order their keys were taken. The run took its key
// one interval earlier, at the run before it; the arrival took its key
// when its serialisation ended, delay earlier. When those coincide, the
// run before took its key another interval earlier, and the serializer
// took its completion key tx before that: the earlier one fired first,
// and with it its successor's key. When those coincide too, the run is
// put first.
func tickBeforeArrival(interval, delay, tx time.Duration) bool {
	if interval != delay {
		return interval > delay
	}
	return interval >= tx
}

// loopBeforeData runs before a delivery that lands at the instant of
// the loop's pending run with a fresh key, which orders the run after
// this arrival. If polling's run came first, the loop runs now, before
// the delivery changes its inputs.
func (s *Sim) loopBeforeData(f *flowState, a *arcState, size units.ByteSize) {
	if a != nil && tickBeforeArrival(f.loop.tickIvl, a.delay, a.txRate().TransmissionTime(size)) {
		s.runLoopNow(f)
	}
}

// wakeLoop follows a delivery that changed the loop's inputs. An idle
// run with a fresh key (a NACK lead-in) that went before this arrival
// at the same instant, where polling's went after it, runs again. A
// parked loop is woken: its next run goes on the first lattice point
// whose polling run would have seen this delivery. On a lattice point
// itself that is this instant when polling's run fired after the
// arrival, the next point otherwise; for the lattice's first point the
// reserved key says which, later points follow tickBeforeArrival.
func (s *Sim) wakeLoop(f *flowState, a *arcState, size units.ByteSize) {
	l := f.loop
	if f.done {
		if l.parked {
			s.disarm(f)
			l.parked = false
		}
		return
	}
	if a == nil {
		return // same-node delivery inside the loop's own run
	}
	now := s.des.Now()
	tx := a.txRate().TransmissionTime(size)
	if l.lastFresh && l.lastAt == now && l.lastIdle && !tickBeforeArrival(l.parkIvl, a.delay, tx) {
		s.runLoopNow(f)
	}
	if !l.parked {
		return
	}
	s.disarm(f)
	at, onPoint := nextLattice(l.lastAt, l.parkIvl, now)
	if onPoint {
		var tickFirst bool
		if at == l.lastAt+l.parkIvl {
			tickFirst = s.des.Passed(l.parkKey)
		} else {
			tickFirst = tickBeforeArrival(l.parkIvl, a.delay, tx)
		}
		if tickFirst {
			at += l.parkIvl
		}
	}
	l.parked = false
	s.runAt(f, at)
}

// orderLoops puts the receiver's runs pending at t into the order a
// polling loop fired them in: it sorts them by loopBefore and re-keys,
// in that order, every run from the first whose key comes too early.
// Requests sent at one instant queue on the receiver's outgoing arcs in
// the order the runs fire, so this order shows in the results.
func (s *Sim) orderLoops(rx *rxLoops, t time.Duration) {
	group := s.loopScratch[:0]
	fresh := false
	for _, r := range rx.loops {
		if r.at == t {
			group = append(group, r.f)
			fresh = fresh || r.f.loop.tickFresh
		}
	}
	s.loopScratch = group
	if len(group) < 2 || !fresh {
		return
	}
	for i := 1; i < len(group); i++ {
		for j := i; j > 0 && pollsBefore(group[j].loop, group[j-1].loop, t); j-- {
			group[j], group[j-1] = group[j-1], group[j]
		}
	}
	for i := 1; i < len(group); i++ {
		if group[i].loop.tickKey.Before(group[i-1].loop.tickKey) {
			for _, g := range group[i:] {
				ivl := g.loop.tickIvl
				s.disarm(g)
				s.arm(g, s.des.Reserve(t), ivl, true)
			}
			return
		}
	}
}

// pollsBefore orders two runs at t as polling did. Where the loops'
// kept history cannot tell: loops whose kept stretches are the same ran
// in step all along, most likely since they started together, and
// first runs at one instant fire in AddTransfer order; other runs keep
// their key order.
func pollsBefore(a, b *loopState, t time.Duration) bool {
	if before, ok := loopBefore(a, b, t); ok {
		return before
	}
	if a.nsegs-a.lo == b.nsegs-b.lo {
		same := true
		for i := int32(1); i <= a.nsegs-a.lo && same; i++ {
			same = a.seg(a.nsegs-i) == b.seg(b.nsegs-i)
		}
		if same {
			return a.order < b.order
		}
	}
	return a.tickKey.Before(b.tickKey)
}

// loopBefore reports whether a polling loop fired a's run at t before
// b's, with ok false when the kept stretches cannot tell. Each run took
// its key at its flow's run before it, so the run whose predecessor
// came earlier fired first; equal predecessors fired in their own order,
// found the same way one step further back. The first runs took their
// keys at Run, before any event, in AddTransfer order.
func loopBefore(a, b *loopState, t time.Duration) (before, ok bool) {
	ia, ib := a.nsegs-1, b.nsegs-1
	for {
		for ia >= a.lo && a.seg(ia).at > t {
			ia--
		}
		for ib >= b.lo && b.seg(ib).at > t {
			ib--
		}
		if ia < a.lo || ib < b.lo {
			return false, false
		}
		sa, sb := a.seg(ia), b.seg(ib)
		firstA, firstB := ia == 0 && sa.at == t, ib == 0 && sb.at == t
		if firstA || firstB {
			if firstA && firstB {
				return a.order < b.order, true
			}
			return firstA, true
		}
		if sa.at < t && sb.at < t && sa.ivl == sb.ivl {
			// Both step back one interval at a time until one reaches
			// its stretch's start: skip to the last step before that.
			t -= (t - max(sa.at, sb.at) - 1) / sa.ivl * sa.ivl
		}
		pa, okA := a.pred(ia, t)
		pb, okB := b.pred(ib, t)
		switch {
		case !okA || !okB:
			return false, false
		case pa != pb:
			return pa < pb, true
		}
		t = pa
	}
}

// seg returns stretch i.
func (l *loopState) seg(i int32) loopSeg {
	return loopSeg{l.segAt[i%loopSegs], time.Duration(l.segIvl[i%loopSegs])}
}

// pred returns the time of the run before the run at t, which lies in
// stretch i, or false when that run is in a stretch no longer kept.
func (l *loopState) pred(i int32, t time.Duration) (time.Duration, bool) {
	if sg := l.seg(i); sg.at < t {
		return t - sg.ivl, true
	}
	if i-1 < l.lo {
		return 0, false
	}
	return t - l.seg(i-1).ivl, true
}

// noteRun records a run at t that set the interval ivl (at most 100 ms,
// so it fits the int32 of segIvl).
func (l *loopState) noteRun(t, ivl time.Duration) {
	if n := l.nsegs; n > 0 {
		last := l.seg(n - 1)
		switch {
		case last.at == t:
			// A second run at one instant (a re-run) replaces the first.
			if n-2 >= l.lo && l.seg(n-2).ivl == ivl {
				l.nsegs--
			} else {
				l.segIvl[(n-1)%loopSegs] = int32(ivl)
			}
			return
		case last.ivl == ivl:
			return
		}
	}
	l.segAt[l.nsegs%loopSegs], l.segIvl[l.nsegs%loopSegs] = t, int32(ivl)
	l.nsegs++
	if l.nsegs-l.lo > loopSegs {
		l.lo++
	}
}
