package chunknet

import (
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/units"
)

// packetKind discriminates the packet types on the wire.
type packetKind int

const (
	pktData    packetKind = iota
	pktRequest            // INRPP request ⟨Nc, ACKc, Ac⟩ (also used as a resend ask)
	pktAck                // AIMD cumulative ack
	pktBpOn               // back-pressure notification
	pktBpOff              // back-pressure release
)

// packet is anything travelling over an arc.
type packet struct {
	kind packetKind
	// f is the transfer the packet belongs to (nil for back-pressure
	// notifications): endpoints reach the flow through it, with no map
	// lookup; traces print its transfer ID.
	f    *flowState
	seq  int64
	size units.ByteSize

	// rest lists the nodes still to visit, in order; empty at the final
	// destination. Detours splice tunnel nodes onto the front.
	rest route.Path

	// detourBudget is how many further one-hop detours the chunk may
	// take — the paper allows detour nodes "one extra hop only".
	detourBudget int
	detoured     bool

	prevHop topo.NodeID

	// AIMD ack payload.
	cum int64

	// Back-pressure payload.
	bpArc  topo.Arc
	bpRate units.BitRate
	resend bool

	// arrival is the DES key the packet's pipe arrival fires under,
	// reserved when it enters the propagation pipe.
	arrival des.Key
}

// arcState is one direction of one link: serializer, control queue, and
// the unified buffer+custody store of the INRPP design (for AIMD the
// store is just a drop-tail buffer).
type arcState struct {
	sim  *Sim
	arc  topo.Arc
	from topo.NodeID
	to   topo.NodeID

	baseRate units.BitRate
	capRate  units.BitRate // possibly reduced by back-pressure
	delay    time.Duration

	busy     bool
	ctrl     []*packet // control packets bypass the data store
	ctrlHead int
	store    *cache.Custody
	// pktq mirrors the store's strict FIFO queue packet-for-packet (an
	// entry is appended exactly when Offer accepts, popped exactly when
	// Pop drains), replacing the former per-arc map and its per-chunk
	// insert/delete churn.
	pktq    []*packet
	pktHead int
	seqNo   uint64

	// The serializer holds at most one packet (txPkt); serialised packets
	// enter the propagation pipe and arrive in FIFO order after the arc's
	// fixed delay. Only the head packet's arrival sits in the DES queue;
	// the others wait under their reserved keys. Both callbacks are bound
	// once, when the arc state is first made (see bind), so transmitting
	// allocates nothing.
	txPkt    *packet
	pipe     []*packet
	pipeHead int
	txDoneFn func()
	arriveFn func()

	iface    *core.Interface
	sentBits float64       // since last estimator tick
	lastRate units.BitRate // EWMA-smoothed measured throughput
	antRate  units.BitRate // EWMA-smoothed anticipated rate (eq. 1)

	bpActive   bool          // this arc has signalled back-pressure
	bpNotified []topo.NodeID // neighbours notified, in notification order
	limited    bool          // capRate reduced by an upstream notification

	// Failure state (see churn.go). outage is the arc's own declared churn
	// process and calendar its scheduled maintenance; the SRLG processes
	// of any groups the link belongs to drive the same state from outside.
	// Because causes overlap freely, the down state is cause-counted:
	// downCauses is the number of currently active down causes of any
	// kind, hardCauses the hard ones among them, and softRates the
	// degraded rates of the active soft ones (the serializer drains at
	// their minimum). down/downSince track the union phase for
	// accounting; wasHard records whether any hard cause was active since
	// downSince (that is what makes surviving store contents "requeued").
	// churnRng is the arc's private seeded stream for its own process;
	// churnDown that process's phase; churnFn the transition callback,
	// bound by the first startChurn that needs it and kept with the arc
	// state, like the two above. txDoomed and pipeDoomed mark in-flight
	// packets caught on the wire by a hard failure: their scheduled
	// completion/arrival events still fire, but dispose of the packet
	// instead of advancing it.
	outage     topo.OutageSpec
	calendar   topo.CalendarSpec
	grouped    bool // member of at least one enabled SRLG
	down       bool
	downSince  time.Duration
	downCauses int
	hardCauses int
	wasHard    bool
	softRates  []units.BitRate
	churnRng   *rand.Rand
	churnDown  bool
	churnFn    func()
	txDoomed   bool
	pipeDoomed int

	// Per-packet random loss (see churn.go): every packet surviving to
	// the far end of the arc is dropped with probability lossProb, drawn
	// from the arc's private seeded stream — independent of outages, so
	// loss exercises the transports' recovery paths continuously rather
	// than in bursts. lossRng stays nil on lossless arcs: the p=0 fast
	// path is a single nil check.
	lossProb float64
	lossRng  *rand.Rand

	// Observability (set only when the sim is instrumented): name is the
	// "from>to" arc label; the counters track serialised and detoured
	// payload bytes. All stay nil on uninstrumented runs (and the churn
	// pair also on churn-free arcs).
	name             string
	cTxBytes         *obs.Counter
	cDetourBytes     *obs.Counter
	cDownTransitions *obs.Counter
	hDownSeconds     *obs.Histogram
	cPktsLostRandom  *obs.Counter
}

// bind binds the arc's transmission callbacks to it. A warm Sim reuses
// arc states (warm.go), so they are bound once per arc state, not per
// run.
func (a *arcState) bind() {
	a.txDoneFn, a.arriveFn = a.txDone, a.deliverHead
}

// flowID is the transfer ID of the packet's flow, 0 for none.
func (p *packet) flowID() int {
	if p.f == nil {
		return 0
	}
	return p.f.tr.ID
}

// newPacket takes a packet from the pool (all fields zero, rest empty
// with its backing array kept).
func (s *Sim) newPacket() *packet {
	s.livePkts++
	if n := len(s.pktFree); n > 0 {
		p := s.pktFree[n-1]
		s.pktFree = s.pktFree[:n-1]
		return p
	}
	return &packet{}
}

// freePacket recycles a packet whose journey ended (delivered, consumed
// by a handler, or dropped). The caller must hold the only live
// reference.
func (s *Sim) freePacket(p *packet) {
	s.livePkts--
	*p = packet{rest: p.rest[:0]}
	s.pktFree = append(s.pktFree, p)
}

// send places a packet onto the arc: control packets take the priority
// lane, data goes through the store (buffer+custody). Returns false when
// the packet was dropped (store full); the caller owns a dropped packet.
func (a *arcState) send(p *packet) bool {
	now := a.sim.des.Now()
	if p.kind != pktData {
		a.ctrl = append(a.ctrl, p)
		a.kick()
		return true
	}
	// The key only advances on acceptance, keeping custody keys dense and
	// the store/pktq mirror exact under drops.
	if !a.store.Offer(a.seqNo, p.size, now) {
		a.sim.rep.ChunksDropped++
		a.sim.mDropped.Inc()
		a.sim.emitTrace("chunk_drop", p.flowID(), a.name, p.seq, 0)
		return false
	}
	a.seqNo++
	a.pktq = append(a.pktq, p)
	a.sim.emitTrace("custody_enter", p.flowID(), a.name, p.seq, a.occupancyFraction())
	a.sim.checkBackpressure(a, p)
	a.kick()
	return true
}

// kick starts the serializer if it is idle and work is pending. A
// hard-down arc stays paused — its store holds everything in custody
// until recoverArc kicks it again.
func (a *arcState) kick() {
	if a.busy || a.paused() {
		return
	}
	p := a.next()
	if p == nil {
		return
	}
	a.transmit(p)
}

// next pops the next packet to serialise: control first, then the store
// in FIFO order, then freshly scheduled sender chunks.
func (a *arcState) next() *packet {
	if a.ctrlHead < len(a.ctrl) {
		p := a.ctrl[a.ctrlHead]
		a.ctrl[a.ctrlHead] = nil
		a.ctrlHead++
		if a.ctrlHead == len(a.ctrl) {
			a.ctrl = a.ctrl[:0]
			a.ctrlHead = 0
		}
		return p
	}
	if p := a.popStored(); p != nil {
		return p
	}
	// Source scheduling: arcs leaving a sender pull the next chunk on
	// demand, which is what paces open-loop push to the link rate.
	return a.sim.nextSenderChunk(a)
}

// popStored pops the head of the store together with its pktq mirror
// entry — the shared dequeue step of next() and failover evacuation.
func (a *arcState) popStored() *packet {
	if _, ok := a.store.Pop(a.sim.des.Now()); !ok {
		return nil
	}
	p := a.pktq[a.pktHead]
	a.pktq[a.pktHead] = nil
	a.pktHead++
	// Compact once the dead prefix dominates (mirrors the store).
	if a.pktHead > 64 && a.pktHead*2 > len(a.pktq) {
		a.pktq = append(a.pktq[:0], a.pktq[a.pktHead:]...)
		a.pktHead = 0
	}
	a.maybeReleaseBackpressure()
	a.sim.emitTrace("custody_exit", p.flowID(), a.name, p.seq, a.occupancyFraction())
	return p
}

// transmit serialises p and schedules its arrival at the far end.
func (a *arcState) transmit(p *packet) {
	a.busy = true
	tx := a.txRate().TransmissionTime(p.size)
	a.sentBits += float64(p.size) * 8
	a.cTxBytes.Add(int64(p.size))
	a.txPkt = p
	a.sim.des.After(tx, a.txDoneFn)
}

// txRate is the rate the serializer drains at now.
func (a *arcState) txRate() units.BitRate {
	rate := a.capRate
	if a.down {
		// Degraded phase: the serializer keeps draining at the minimum
		// rate over the active soft causes. (Hard outages never reach
		// here — kick is paused.)
		if r := a.minSoftRate(); r < rate {
			rate = r
		}
	}
	if rate <= 0 {
		rate = units.BitRate(1) // fully throttled: crawl, don't stall forever
	}
	return rate
}

// txDone runs when serialisation finishes: the packet enters the
// propagation pipe and the serializer picks up its next packet. The
// packet's arrival key is reserved now, exactly the key After(delay)
// would give it; the delay is constant per arc, so keys are reserved in
// arrival order and only the pipe's head needs a pending event.
func (a *arcState) txDone() {
	p := a.txPkt
	a.txPkt = nil
	a.busy = false
	if a.txDoomed {
		// The arc hard-failed while p was on the wire: the frame is lost
		// even if the arc has already recovered. kick() resumes the
		// serializer in that case and stays paused otherwise.
		a.txDoomed = false
		a.dropInFlight(p)
		a.kick()
		return
	}
	d := a.sim.des
	p.arrival = d.Reserve(d.Now() + a.delay)
	a.pipe = append(a.pipe, p)
	if len(a.pipe)-a.pipeHead == 1 {
		d.AtKey(p.arrival, a.arriveFn)
	}
	a.kick()
}

// deliverHead hands the oldest in-flight packet to the far end and
// schedules the next one's arrival under its reserved key.
func (a *arcState) deliverHead() {
	p := a.pipe[a.pipeHead]
	a.pipe[a.pipeHead] = nil
	a.pipeHead++
	switch {
	case a.pipeHead == len(a.pipe):
		a.pipe = a.pipe[:0]
		a.pipeHead = 0
	case a.pipeHead > 64 && a.pipeHead*2 > len(a.pipe):
		// Compact once the dead prefix dominates, as popStored does for
		// pktq: an arc that is never idle would otherwise grow the
		// backing array by one slot per packet sent.
		a.pipe = append(a.pipe[:0], a.pipe[a.pipeHead:]...)
		a.pipeHead = 0
	}
	if a.pipeHead < len(a.pipe) {
		a.sim.des.AtKey(a.pipe[a.pipeHead].arrival, a.arriveFn)
	}
	if a.pipeDoomed > 0 {
		// This packet was in the pipe when the arc hard-failed; the pipe
		// is FIFO and nothing entered it behind the doomed ones before
		// recovery, so the next pipeDoomed heads are exactly the victims.
		a.pipeDoomed--
		a.dropInFlight(p)
		return
	}
	if a.lossRng != nil && a.lossRng.Float64() < a.lossProb {
		// Random per-packet loss, drawn only for packets that would
		// otherwise arrive so the stream indexes deliveries, not wire
		// occupancy. The draw is allocation-free (BenchmarkChunknetLossy
		// gates this).
		a.dropRandom(p)
		return
	}
	a.sim.arrive(p, a)
}

// measuredResidual estimates the spare capacity of the arc from the last
// estimator tick — the "average link utilisation" neighbours exchange in
// the capacity-aware detour variant (§3.3). A hard-down arc reports zero
// residual: the planner and pickDetour treat it as zero-capacity, which
// is what steers failover detours around outages.
func (a *arcState) measuredResidual() units.BitRate {
	if a.paused() {
		return 0
	}
	capRate := a.capRate
	if a.down {
		if r := a.minSoftRate(); r < capRate {
			capRate = r
		}
	}
	res := capRate - a.lastRate
	if res < 0 {
		return 0
	}
	return res
}

// minSoftRate is the lowest degraded rate among the active soft down
// causes, or the arc's capRate when none are active.
func (a *arcState) minSoftRate() units.BitRate {
	min := a.capRate
	for _, r := range a.softRates {
		if r < min {
			min = r
		}
	}
	return min
}

// occupancyFraction is the filled share of the store.
func (a *arcState) occupancyFraction() float64 {
	capacity := a.store.Capacity()
	if capacity == 0 {
		return 1
	}
	return float64(a.store.Used()) / float64(capacity)
}

// maybeReleaseBackpressure lifts back-pressure once the store has drained
// below the low watermark.
func (a *arcState) maybeReleaseBackpressure() {
	if !a.bpActive || a.occupancyFraction() > bpLow {
		return
	}
	a.bpActive = false
	a.sim.mBpOff.Inc()
	a.sim.emitTrace("backpressure_off", 0, a.name, 0, a.occupancyFraction())
	for _, n := range a.bpNotified {
		p := a.sim.newPacket()
		p.kind = pktBpOff
		p.size = requestSize
		p.bpArc = a.arc
		a.sim.sendControl(a.from, n, p)
	}
	a.bpNotified = a.bpNotified[:0]
}
