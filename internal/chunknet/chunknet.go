package chunknet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
)

// Transport selects the protocol stack of a run.
type Transport int

// The three transports.
const (
	INRPP Transport = iota
	AIMD
	ARC
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case INRPP:
		return "INRPP"
	case AIMD:
		return "AIMD"
	case ARC:
		return "ARC"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Config describes a chunk-level simulation.
type Config struct {
	Graph     *topo.Graph
	Transport Transport

	// ChunkSize is the data chunk payload size (default 100KB).
	ChunkSize units.ByteSize
	// Anticipation is the Ac window: how many chunks ahead of the
	// application's needs receivers request (default 8).
	Anticipation int64
	// InitialRequestRate seeds the receiver's request pacing before any
	// data has arrived (default 10Mbps equivalent).
	InitialRequestRate units.BitRate

	// QueueBytes is the plain output-buffer budget per arc (default
	// 64×ChunkSize). For AIMD this is the whole drop-tail buffer.
	QueueBytes units.ByteSize
	// CustodyBytes is the additional custody-store budget per arc under
	// INRPP (default 0: pure buffer).
	CustodyBytes units.ByteSize

	// Ti is the estimator interval (default 10ms).
	Ti time.Duration
	// Planner configures detour planning (default core.DefaultPlannerConfig).
	Planner core.PlannerConfig

	// ChurnSeed seeds every stochastic failure process (default 1): the
	// per-arc outage streams, the SRLG group streams, and the per-arc
	// loss streams. The processes themselves are declared on the graph
	// (SetLinkOutage, SetLinkCalendar, AddSRLG, SetLinkLoss). Two runs with the same seed see byte-identical
	// disruption; the seed is mixed per source, so arcs and groups fail
	// independently of each other and of packet loss.
	ChurnSeed int64
	// Failover selects what INRPP routers do with traffic whose nominal
	// next arc is hard-down (default FailoverHold: wait in custody; see
	// failover.go). Ignored by AIMD/ARC, which have no detours.
	Failover FailoverMode

	// MinRTO floors ARC's adaptive stall timer (default 10ms). Setting it
	// to the fixed 200ms RTO pins the timer to the legacy behaviour.
	MinRTO time.Duration

	// Obs, when non-nil, binds the run's metrics (kernel event counts,
	// per-arc bytes, custody occupancy samples, retransmits, RTO fires) to
	// the registry. Metrics only observe the run — results are identical
	// with or without them. Concurrent runs may share one registry;
	// counters then aggregate across runs.
	Obs *obs.Registry
	// Trace, when non-nil, receives sampled sim-time events (custody
	// enter/exit, back-pressure transitions, detours, transfer
	// completions). TraceLabel tags this run's events.
	Trace      *obs.Trace
	TraceLabel string
}

// Fixed protocol constants.
const (
	// requestSize is the size of request, ack and notification packets.
	requestSize = 100 * units.Byte
	// bpHigh and bpLow are the custody occupancy fractions that trigger
	// and release back-pressure.
	bpHigh, bpLow = 0.7, 0.3
	// maxRTO is the AIMD retransmission timeout and the ARC stall timer's
	// upper bound and pre-sample fallback. AIMD keeps the fixed timer;
	// ARC adapts below it from measured RTTs.
	maxRTO = 200 * time.Millisecond
)

// validate rejects a config New cannot run as asked, naming the field.
// Zero values are valid: they select the defaults.
func (c *Config) validate() error {
	if c.Transport < INRPP || c.Transport > ARC {
		return fmt.Errorf("chunknet: unknown Transport %d", int(c.Transport))
	}
	if c.Failover < FailoverHold || c.Failover > FailoverBoth {
		return fmt.Errorf("chunknet: unknown failover mode %d", int(c.Failover))
	}
	switch {
	case c.ChunkSize < 0:
		return fmt.Errorf("chunknet: negative ChunkSize %v", c.ChunkSize)
	case c.Anticipation < 0:
		return fmt.Errorf("chunknet: negative Anticipation %d", c.Anticipation)
	case c.InitialRequestRate < 0:
		return fmt.Errorf("chunknet: negative InitialRequestRate %v", c.InitialRequestRate)
	case c.QueueBytes < 0:
		return fmt.Errorf("chunknet: negative QueueBytes %v", c.QueueBytes)
	case c.CustodyBytes < 0:
		return fmt.Errorf("chunknet: negative CustodyBytes %v", c.CustodyBytes)
	case c.Ti < 0:
		return fmt.Errorf("chunknet: negative Ti %v", c.Ti)
	case c.MinRTO < 0:
		return fmt.Errorf("chunknet: negative MinRTO %v", c.MinRTO)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = 100 * units.KB
	}
	if c.Anticipation == 0 {
		c.Anticipation = 8
	}
	if c.InitialRequestRate == 0 {
		c.InitialRequestRate = 10 * units.Mbps
	}
	if c.QueueBytes == 0 {
		c.QueueBytes = 64 * c.ChunkSize
	}
	if c.Ti == 0 {
		c.Ti = 10 * time.Millisecond
	}
	if c.Planner == (core.PlannerConfig{}) {
		c.Planner = core.DefaultPlannerConfig()
	}
	if c.ChurnSeed == 0 {
		c.ChurnSeed = 1
	}
	if c.MinRTO == 0 {
		c.MinRTO = 10 * time.Millisecond
	}
}

// Transfer is one content transfer: Chunks chunks flow from the content
// source Src to the receiver Dst, starting at Start.
type Transfer struct {
	ID     int
	Src    topo.NodeID
	Dst    topo.NodeID
	Chunks int64
	Start  time.Duration
}

// Report aggregates a run's outcome.
type Report struct {
	Transport Transport
	Duration  time.Duration

	ChunksSent      int64
	ChunksDelivered int64
	ChunksDropped   int64
	ChunksDetoured  int64
	Retransmits     int64

	// Failure accounting (all zero on an undisrupted run).
	// ChunksLostInFlight counts data chunks destroyed on the wire by hard
	// outages; ChunksRequeued counts custody-held chunks that survived a
	// hard outage and resumed on recovery. ArcDownSeconds sums downtime
	// over all arcs (open phases at the horizon included).
	// SRLGDownTransitions counts correlated group-down transitions (each
	// may take many arcs down; the per-arc transitions are in
	// ArcDownTransitions as usual). PktsLostRandom counts packets of any
	// kind dropped by per-packet random loss. DetourFailovers counts
	// chunks detoured around a hard-down arc (fresh and evacuated);
	// ChunksEvacuated the evacuated subset.
	ArcDownTransitions  int64
	ArcDownSeconds      float64
	ChunksRequeued      int64
	ChunksLostInFlight  int64
	SRLGDownTransitions int64
	PktsLostRandom      int64
	DetourFailovers     int64
	ChunksEvacuated     int64

	// Completions maps transfer ID to completion time; unfinished
	// transfers are absent.
	Completions map[int]time.Duration
	// DeliveredPerFlow maps transfer ID to distinct chunks delivered.
	DeliveredPerFlow map[int]int64

	// CustodyPeak is the largest custody+queue occupancy seen on any arc.
	CustodyPeak units.ByteSize
	// CustodyResidency summarises seconds spent in store across all arcs.
	CustodyResidency stats.Summary
	// BackpressureOn counts back-pressure notifications sent.
	BackpressureOn int
	// ClosedLoopEntries counts flows pushed into sender closed-loop mode.
	ClosedLoopEntries int
}

// Sim is a configured chunk-level simulation.
type Sim struct {
	cfg     Config
	g       *topo.Graph
	des     *des.Simulator
	planner *core.Planner

	nodes []*nodeState
	arcs  []*arcState // indexed 2*link+dir
	srlgs []*srlgState

	flows   []*flowState // in AddTransfer order
	spTrees map[topo.NodeID]*route.Tree

	// pktFree is the packet pool: every packet whose journey ended is
	// recycled here, so per-chunk forwarding allocates nothing in steady
	// state (see newPacket/freePacket in arc.go).
	pktFree []*packet
	// livePkts counts packets taken from the pool and not yet freed, and
	// undone the transfers not yet complete: the inputs of drained.
	livePkts int
	undone   int
	// warm holds the buffers taken over from an earlier Sim until Run
	// hands them on (see warm.go).
	warm *warmBufs
	// residualFn is the measured-residual adapter handed to the planner,
	// bound once instead of per estimator tick.
	residualFn core.ResidualFunc
	// pathScratch is the reusable staging buffer for in-place detour
	// route splicing (forwardData); detourScratch is the same idea for
	// pickDetour's candidate list.
	pathScratch   route.Path
	detourScratch []topo.NodeID

	rep Report

	// Observability instruments (nil when cfg.Obs is nil; every update is
	// then a nil-safe no-op). Per-arc counters live on arcState.
	mSent            *obs.Counter
	mDelivered       *obs.Counter
	mDropped         *obs.Counter
	mDetoured        *obs.Counter
	mRetransmits     *obs.Counter
	mRTOFires        *obs.Counter
	mBpOn            *obs.Counter
	mBpOff           *obs.Counter
	mCompleted       *obs.Counter
	mDownTransitions *obs.Counter
	mRequeued        *obs.Counter
	mLostInFlight    *obs.Counter
	mSRLGTransitions *obs.Counter
	mPktsLostRandom  *obs.Counter
	mDetourFailovers *obs.Counter
	mEvacuated       *obs.Counter
	sCustody         *obs.Sampler
	gCustodyPeak     *obs.Gauge

	ran bool // Run may only be called once
}

// nodeState is one router/host in the simulation.
type nodeState struct {
	id     topo.NodeID
	arcIdx []int32 // outgoing arc index per local interface
	// arcTo and ifaceTo are dense neighbor tables indexed by NodeID: the
	// outgoing arc index / local interface toward that neighbor, or -1.
	// They replace per-hop LinkBetween map lookups on the forwarding hot
	// path with one slice index.
	arcTo   []int32
	ifaceTo []core.IfaceID
	est     *core.Estimator
	schedRR int          // round-robin cursor over local sender flows
	senders []*flowState // flows originating here
}

// New builds a simulation over g.
func New(cfg Config) (*Sim, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("chunknet: nil graph")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	w := warmPool.Get().(*warmBufs)
	s := &Sim{
		cfg:     cfg,
		g:       cfg.Graph,
		des:     w.des,
		planner: core.NewPlanner(cfg.Graph, cfg.Planner),
		spTrees: make(map[topo.NodeID]*route.Tree),
		pktFree: w.pkts,
		warm:    w,
	}
	w.pkts = nil
	s.rep.Transport = cfg.Transport
	s.rep.Completions = make(map[int]time.Duration)
	s.rep.DeliveredPerFlow = make(map[int]int64)

	links := s.g.NumLinks()
	numNodes := s.g.NumNodes()
	s.arcs = make([]*arcState, 2*links)
	s.nodes = make([]*nodeState, numNodes)
	s.residualFn = func(b topo.Arc) units.BitRate {
		return s.arcs[2*int(b.Link)+int(b.Dir)].measuredResidual()
	}
	for _, n := range s.g.Nodes() {
		ns := &nodeState{
			id:      n.ID,
			arcTo:   make([]int32, numNodes),
			ifaceTo: make([]core.IfaceID, numNodes),
		}
		for i := range ns.arcTo {
			ns.arcTo[i] = -1
			ns.ifaceTo[i] = -1
		}
		for _, lid := range s.g.IncidentLinks(n.ID) {
			l := s.g.Link(lid)
			dir := l.DirectionFrom(n.ID)
			idx := int32(2*int(lid) + int(dir))
			iface := core.IfaceID(len(ns.arcIdx))
			ns.ifaceTo[l.Other(n.ID)] = iface
			ns.arcTo[l.Other(n.ID)] = idx
			ns.arcIdx = append(ns.arcIdx, idx)

			storeCap := cfg.QueueBytes
			if cfg.Transport == INRPP {
				storeCap += cfg.CustodyBytes
			}
			a := w.arc()
			a.sim = s
			a.arc = topo.Arc{Link: lid, Dir: dir}
			a.from, a.to = n.ID, l.Other(n.ID)
			a.baseRate, a.capRate = l.Capacity, l.Capacity
			a.delay = l.Delay
			a.outage, a.calendar = l.Outage, l.Calendar
			a.lossProb = l.LossProb
			a.store = w.store(storeCap)
			a.pktq, a.pipe = pop(&w.pktqs), pop(&w.pipes)
			s.arcs[idx] = a
		}
		if len(ns.arcIdx) > 0 {
			ns.est = core.NewEstimator(len(ns.arcIdx), cfg.ChunkSize, cfg.Ti)
		}
		s.nodes[n.ID] = ns
	}
	for _, a := range s.arcs {
		if a != nil {
			a.iface = core.NewInterface(a.baseRate)
		}
	}
	// Bind shared-risk groups to their member arcs (both directions of
	// every member link fail together — a conduit cut severs the fibre,
	// not one direction of it).
	for _, grp := range s.g.SRLGs() {
		if !grp.Enabled() {
			continue
		}
		gs := &srlgState{sim: s, name: grp.Name, outage: grp.Outage, calendar: grp.Calendar}
		for _, lid := range grp.Links {
			for dir := 0; dir < 2; dir++ {
				if a := s.arcs[2*int(lid)+dir]; a != nil {
					gs.arcs = append(gs.arcs, a)
					a.grouped = true
				}
			}
		}
		s.srlgs = append(s.srlgs, gs)
	}
	s.instrument()
	return s, nil
}

// instrument binds metrics and trace labels when the config enables
// observability. Instruments and arc labels are created here, at
// construction — never on a hot path — so an uninstrumented run skips
// even the label formatting and its instrument fields stay nil (every
// update below is then a nil-safe no-op).
func (s *Sim) instrument() {
	if s.cfg.Obs == nil && s.cfg.Trace == nil {
		return
	}
	for _, a := range s.arcs {
		if a != nil {
			a.name = fmt.Sprintf("%d>%d", a.from, a.to)
		}
	}
	reg := s.cfg.Obs
	if reg == nil {
		return
	}
	s.des.Instrument(reg)
	s.mSent = reg.Counter("chunknet_chunks_sent")
	s.mDelivered = reg.Counter("chunknet_chunks_delivered")
	s.mDropped = reg.Counter("chunknet_chunks_dropped")
	s.mDetoured = reg.Counter("chunknet_chunks_detoured")
	s.mRetransmits = reg.Counter("chunknet_retransmits")
	s.mRTOFires = reg.Counter("chunknet_rto_fires")
	s.mBpOn = reg.Counter("chunknet_backpressure_on")
	s.mBpOff = reg.Counter("chunknet_backpressure_off")
	s.mCompleted = reg.Counter("chunknet_transfers_completed")
	s.sCustody = reg.Sampler("chunknet_custody_used_bytes", 1024)
	s.gCustodyPeak = reg.Gauge("chunknet_custody_peak_bytes")
	for _, a := range s.arcs {
		if a == nil {
			continue
		}
		a.cTxBytes = reg.Counter(obs.Labeled("arc_tx_bytes", "arc", a.name))
		a.cDetourBytes = reg.Counter(obs.Labeled("arc_detour_bytes", "arc", a.name))
		if a.disrupted() {
			a.cDownTransitions = reg.Counter(obs.Labeled("arc_down_transitions", "arc", a.name))
			a.hDownSeconds = reg.Histogram(obs.Labeled("arc_down_seconds", "arc", a.name))
		}
		if a.lossProb > 0 {
			a.cPktsLostRandom = reg.Counter(obs.Labeled("arc_pkts_lost_random", "arc", a.name))
		}
	}
	// Sim-wide failure instruments exist only on runs whose config can
	// move them, so an undisrupted run registers the exact metric set it
	// always has (TestChurnFreeRunsUnchanged pins this).
	if s.churned() {
		s.mDownTransitions = reg.Counter("chunknet_arc_down_transitions")
		s.mRequeued = reg.Counter("chunknet_chunks_requeued")
		s.mLostInFlight = reg.Counter("chunknet_chunks_lost_inflight")
	}
	if len(s.srlgs) > 0 {
		s.mSRLGTransitions = reg.Counter("chunknet_srlg_down_transitions")
		for _, grp := range s.srlgs {
			grp.cTransitions = reg.Counter(obs.Labeled("srlg_down_transitions", "srlg", grp.name))
		}
	}
	if s.lossy() {
		s.mPktsLostRandom = reg.Counter("chunknet_pkts_lost_random")
	}
	if s.cfg.Failover != FailoverHold {
		s.mDetourFailovers = reg.Counter("chunknet_detour_failovers")
		s.mEvacuated = reg.Counter("chunknet_chunks_evacuated")
	}
}

// churned reports whether any arc can go down: an enabled outage
// process, a maintenance calendar, or membership in an enabled SRLG.
func (s *Sim) churned() bool {
	for _, a := range s.arcs {
		if a != nil && (a.outage.Enabled() || a.calendar.Enabled()) {
			return true
		}
	}
	return len(s.srlgs) > 0
}

// lossy reports whether any arc declares per-packet random loss.
func (s *Sim) lossy() bool {
	for _, a := range s.arcs {
		if a != nil && a.lossProb > 0 {
			return true
		}
	}
	return false
}

// emitTrace writes one sampled sim-time trace event; a no-op without a
// configured trace (the nil check is the only cost then).
func (s *Sim) emitTrace(event string, flow int, arc string, seq int64, v float64) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace.Emit(obs.Event{
		Scenario: s.cfg.TraceLabel,
		T:        s.des.Now().Seconds(),
		Event:    event,
		Flow:     flow,
		Arc:      arc,
		Seq:      seq,
		Value:    v,
	})
}

// AddTransfer registers a transfer before Run. Transfers with unreachable
// endpoints are rejected.
func (s *Sim) AddTransfer(tr Transfer) error {
	for _, f := range s.flows {
		if f.tr.ID == tr.ID {
			return fmt.Errorf("chunknet: duplicate transfer ID %d", tr.ID)
		}
	}
	tree, ok := s.spTrees[tr.Src]
	if !ok {
		tree = route.Dijkstra(s.g, tr.Src, nil, nil)
		s.spTrees[tr.Src] = tree
	}
	dataPath := tree.PathTo(tr.Dst)
	if dataPath == nil {
		return fmt.Errorf("chunknet: no path %d→%d", tr.Src, tr.Dst)
	}
	f := &flowState{
		tr:         tr,
		dataPath:   dataPath,
		reqPath:    reversePath(dataPath),
		win:        core.NewWindow(tr.Chunks, s.cfg.Anticipation),
		rateEst:    float64(s.cfg.InitialRequestRate),
		nextReq:    0,
		highestReq: -1,
		cwnd:       2,
		ssthresh:   64,
		lastCum:    -1,
		lastNack:   -1, // chunk 0 must be NACKable/re-requestable
	}
	switch s.cfg.Transport {
	case INRPP:
		f.rank = uint32(len(s.flows))
		f.loopFn = func() { s.requestLoop(f) }
	case AIMD:
		f.timeoutFn = func() { s.aimdTimeout(f) }
	case ARC:
		f.reqSent = make(map[int64]time.Duration)
		f.timeoutFn = func() { s.arcTimeout(f) }
	}
	s.flows = append(s.flows, f)
	s.undone++
	s.nodes[tr.Src].senders = append(s.nodes[tr.Src].senders, f)
	return nil
}

// Run executes the simulation until the given horizon (virtual time) and
// returns the report. It can only be called once: a second call would
// replay flow kicks over consumed state and silently corrupt the report,
// so it panics instead. Run ends by handing the Sim's buffers to the next
// New (warm.go); the returned Report stays valid.
func (s *Sim) Run(until time.Duration) *Report {
	if s.ran {
		panic("chunknet: Sim.Run called twice")
	}
	s.ran = true
	// Arm link churn first so outage transitions win equal-timestamp
	// ordering deterministically over same-instant flow activity.
	s.startChurn()
	// Kick off per-flow activity.
	for _, f := range s.flows {
		start := f.tr.Start
		switch s.cfg.Transport {
		case INRPP:
			s.runAt(f, start)
		case AIMD:
			s.des.At(start, func() { s.aimdStart(f) })
		case ARC:
			s.des.At(start, func() { s.arcStart(f) })
		}
	}
	// Periodic estimator ticks on every node (INRPP only), until the
	// horizon or until the Sim has drained.
	if s.cfg.Transport == INRPP {
		var tick func()
		tick = func() {
			if s.drained() {
				return
			}
			s.tickEstimators()
			if s.des.Now() < until {
				s.des.After(s.cfg.Ti, tick)
			}
		}
		s.des.After(s.cfg.Ti, tick)
	}
	// Custody-occupancy sampling at estimator cadence, until the horizon
	// or the first sample after the Sim has drained (every store is then
	// empty for good). The callback only reads store state, so the extra
	// kernel events cannot change the simulation outcome (the
	// golden-with-metrics tests pin this).
	if s.sCustody != nil {
		var sample func()
		sample = func() {
			var used int64
			for _, a := range s.arcs {
				if a != nil {
					used += int64(a.store.Used())
				}
			}
			s.sCustody.Sample(s.des.Now(), float64(used))
			if used > s.gCustodyPeak.Value() {
				s.gCustodyPeak.Set(used)
			}
			if s.des.Now() < until && !s.drained() {
				s.des.After(s.cfg.Ti, sample)
			}
		}
		s.des.After(s.cfg.Ti, sample)
	}
	s.des.RunUntil(until)
	s.finalize(until)
	s.release()
	return &s.rep
}

func (s *Sim) finalize(until time.Duration) {
	s.rep.Duration = until
	s.finishChurn(until)
	for _, f := range s.flows {
		s.rep.DeliveredPerFlow[f.tr.ID] = f.win.Count()
	}
	for _, a := range s.arcs {
		if a == nil {
			continue
		}
		st := a.store.Stats()
		if st.HighWater > s.rep.CustodyPeak {
			s.rep.CustodyPeak = st.HighWater
		}
		s.rep.CustodyResidency.Merge(a.store.ResidencySeconds())
	}
}

// arcFor returns the outgoing arc state from node u toward neighbor v —
// one slice index into the node's dense neighbor table.
func (s *Sim) arcFor(u, v topo.NodeID) *arcState {
	idx := s.nodes[u].arcTo[v]
	if idx < 0 {
		panic(fmt.Sprintf("chunknet: no link %d-%d", u, v))
	}
	return s.arcs[idx]
}

func reversePath(p route.Path) route.Path {
	out := make(route.Path, len(p))
	for i, n := range p {
		out[len(p)-1-i] = n
	}
	return out
}
