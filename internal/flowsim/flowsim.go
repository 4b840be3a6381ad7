// Package flowsim is the flow-level fluid simulator used for the paper's
// Figure 4 evaluation: flows arrive over a topology, bandwidth is shared
// max-min fairly given the routing policy, and flows drain at their
// allocated rates until done.
//
// Three routing policies are provided, matching the paper's comparison:
//
//   - SP: single shortest-path routing; the TCP-style baseline.
//   - ECMP: equal-cost multipath; each flow is hashed onto one of the
//     equal-cost shortest paths.
//   - INRP: shortest-path primaries plus in-network resource pooling —
//     when an arc saturates, its overflow is shifted onto detour sub-paths
//     with spare capacity (via core.Planner), and what cannot be placed is
//     back-pressured (§3.3).
//
// The simulator is deterministic: no goroutines, no wall-clock, explicit
// seeds in the workload.
package flowsim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// Policy selects the routing/pooling behaviour of a run.
type Policy int

// The three policies of Figure 4 (the paper labels INRP "URP" in the
// figure's legend).
const (
	SP Policy = iota
	ECMP
	INRP
)

// String names the policy as in the paper's Figure 4 legend.
func (p Policy) String() string {
	switch p {
	case SP:
		return "SP"
	case ECMP:
		return "ECMP"
	case INRP:
		return "INRP"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes one simulation run.
type Config struct {
	Graph  *topo.Graph
	Policy Policy
	Flows  []workload.Flow // sorted by arrival time; see Run

	// Horizon stops the simulation at this virtual time; 0 runs until all
	// flows complete.
	Horizon time.Duration

	// Planner configures INRP detour planning (ignored for SP/ECMP).
	// Zero value means core.DefaultPlannerConfig.
	Planner core.PlannerConfig

	// PoolingRounds caps the fill→plan fixpoint iterations of the INRP
	// allocator per event (default 4). The allocator stops early once a
	// round reproduces the grants it started from; results are those of
	// running every round.
	PoolingRounds int

	// DemandCap bounds every flow's rate (CBR-like demand). Zero means
	// elastic flows. With a cap set, Result.DemandSatisfied reports the
	// time-averaged fraction of aggregate demand the network carried —
	// the "network throughput" metric of Fig. 4a.
	DemandCap units.BitRate

	// Obs, when non-nil, binds the run's metrics (allocator fills,
	// back-pressure events, admit/finish counts, active-flow samples) to
	// the registry. Metrics only observe the run — results are identical
	// with or without them.
	Obs *obs.Registry
	// Trace, when non-nil, receives flow admit/finish events in sim time;
	// TraceLabel tags this run's events.
	Trace      *obs.Trace
	TraceLabel string
}

// Result aggregates a run's outcome.
type Result struct {
	Policy    Policy
	Offered   units.ByteSize // bytes of all arrived flows
	Delivered units.ByteSize // bytes actually moved by the horizon
	Duration  time.Duration  // virtual time simulated
	Total     int            // flows arrived
	Completed int            // flows fully delivered

	// GoodputRatio is Delivered/Offered — the "network throughput" metric
	// of Fig. 4a: under overload it measures how much of the offered load
	// the policy actually carried.
	GoodputRatio float64
	// Utilization is the byte-weighted mean utilisation of all arcs.
	Utilization float64
	// FCTSeconds summarises completion times of completed flows.
	FCTSeconds stats.Summary
	// Stretch holds the rate-weighted path stretch of each completed
	// flow (Fig. 4b).
	Stretch []float64
	// MeanRates holds size/FCT (bits/s) per completed flow, the input to
	// Jain below.
	MeanRates []float64
	// Jain is Jain's fairness index over MeanRates.
	Jain float64
	// DetouredShare is the fraction of delivered bits that travelled over
	// a detour sub-path instead of a primary arc (INRP only).
	DetouredShare float64
	// Backpressured counts allocator passes where overflow could not be
	// fully detoured and had to be rate-capped (INRP only).
	Backpressured int
	// DemandSatisfied is the time-averaged Σ allocated / Σ demanded over
	// the run (only meaningful with Config.DemandCap set).
	DemandSatisfied float64
}

// arrivalSlack is the admission tolerance of the event loop: a flow
// whose arrival time is within this of the current virtual time is
// admitted at it, absorbing the float rounding of completion times that
// land exactly on an arrival. The same constant governs the pre-loop
// (t=0) batch and the per-event admission sweep, so admission is
// symmetric across the two code paths.
const arrivalSlack = 1e-12

// finishEps is the completion residue: a flow whose remaining bits drop
// to or below this sub-millibit threshold is done.
const finishEps = 1e-3

// Run executes the simulation described by cfg. A flow with an endpoint
// outside the graph, equal endpoints, a size ≤ 0, a negative arrival or
// an arrival before its predecessor's fails the run with an error naming
// the flow.
func Run(cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("flowsim: nil graph")
	}
	if err := checkFlows(cfg.Graph, cfg.Flows); err != nil {
		return nil, err
	}
	if cfg.PoolingRounds <= 0 {
		cfg.PoolingRounds = 4
	}
	if cfg.Planner == (core.PlannerConfig{}) {
		cfg.Planner = core.DefaultPlannerConfig()
	}
	r := &runner{cfg: cfg, g: cfg.Graph}
	r.init()
	return r.run()
}

// checkFlows rejects a flow the event loop cannot run: an endpoint
// outside the graph, a flow from a node to itself or with no bytes to
// send (neither ever completes), or an arrival before time 0 or earlier
// than the flow before it (it would be admitted late).
func checkFlows(g *topo.Graph, flows []workload.Flow) error {
	n := topo.NodeID(g.NumNodes())
	for i, f := range flows {
		switch {
		case f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n:
			return fmt.Errorf("flowsim: flow %d: endpoints %d→%d outside the %d-node graph", f.ID, f.Src, f.Dst, n)
		case f.Src == f.Dst:
			return fmt.Errorf("flowsim: flow %d: source and destination are both node %d", f.ID, f.Src)
		case f.Size <= 0:
			return fmt.Errorf("flowsim: flow %d: size %d bytes, want > 0", f.ID, int64(f.Size))
		case f.Arrival < 0:
			return fmt.Errorf("flowsim: flow %d: arrival %v before the run starts at 0", f.ID, f.Arrival)
		case i > 0 && f.Arrival < flows[i-1].Arrival:
			return fmt.Errorf("flowsim: flow %d: arrival %v before flow %d's %v; Flows must be sorted by arrival",
				f.ID, f.Arrival, flows[i-1].ID, flows[i-1].Arrival)
		}
	}
	return nil
}

// runner holds the mutable simulation state.
type runner struct {
	cfg Config
	g   *topo.Graph

	nArcs   int
	capBase []float64  // bits/s per arc
	arcBack []topo.Arc // index → Arc

	spTrees map[topo.NodeID]*route.Tree
	ecmp    map[topo.NodeID]*route.ECMP
	planner *core.Planner

	// Flow storage, structure-of-arrays: one slot per flow, indexed by
	// the int32 slot number, reused through a free list once the flow
	// finishes. activeOrder lists the live slots in admission order —
	// every per-flow loop in the simulator and the allocator walks it,
	// so float accumulation order is the admission order regardless of
	// slot reuse. This is the storage the bit-identity contract of the
	// class allocator (classes.go) is defined over.
	slotID      []int     // workload flow ID
	slotClass   []int32   // flow-class index (see classes.go)
	slotArrival []float64 // seconds
	slotRem     []float64 // bits left
	slotSize    []float64 // bits offered
	slotDeliv   []float64 // bits moved
	slotHopBits []float64 // Σ (expected hops at epoch) × bits moved
	freeSlots   []int32
	activeOrder []int32

	res Result

	// Flow-class registry (classes.go): classes never shrink, indices are
	// stable, and arcClasses[a] lists every class crossing arc a.
	classes    []flowClass
	classOf    map[string]int32
	arcClasses [][]int32
	keyScratch []byte

	// Live-class index: classes with at least one active member, in
	// arbitrary order (swap-remove on death). Every per-class loop of the
	// allocator and the event loop walks this list, so per-event cost
	// scales with the concurrently active population, not with the total
	// number of classes ever seen. Dead classes keep classFrozen true and
	// classRate zero (finishSlot restores the invariant), so the freeze
	// sweeps that reach them through arcClasses skip them for free.
	liveClasses []int32
	classPos    []int32 // per class: index in liveClasses, -1 when dead

	// Live-arc index (classes.go): arcWeight[a] sums the live class
	// weights over the classes crossing arc a, and liveArcs lists the arcs
	// with arcWeight > 0 in ascending order. admit and finishSlot keep
	// both current, so a fill never walks the idle arcs of the topology.
	arcWeight []int
	liveArcs  []int32

	// classBySrcDst caches class resolution for the deterministic
	// policies (SP/INRP): key (src<<32|dst) → class index, so repeat
	// admissions of an endpoint pair skip routing entirely.
	classBySrcDst map[uint64]int32

	// INRP per-run tables: the fixed saturation tolerance per arc, every
	// arc index, and the ascending arcs with capBase ≤ epsBase, which
	// count as saturated even when idle.
	epsBase    []float64
	allArcs    []int32
	lowCapArcs []int32

	// INRP pooling state, recomputed at every allocation.
	grantsFor     []float64 // per arc: overflow successfully detoured
	detourLoad    []float64 // per arc: detour traffic landed on it
	extraWeighted []float64 // per arc: Σ grant rate × extra hops
	detourRate    float64   // bits/s currently travelling via detours
	arcBusy       []float64 // bits carried per arc (utilisation)
	detourBits    float64
	residualFn    core.ResidualFunc // planning residual, bound once

	// Allocator scratch, reused across allocate() calls so the hot path
	// performs no heap allocation in steady state.
	ratesBuf     []float64     // per flow: expanded rates
	hopsBuf      []float64     // per flow: expanded expected hops
	capEff       []float64     // per arc: pooled effective capacity
	primaryLoad  []float64     // per arc: primary traffic of the round
	fillLoad     []float64     // per arc: classFill working load
	fillWeight   []int         // per arc: classFill unfrozen weight
	activeArcs   []int32       // classFill: arcs carrying unfrozen weight
	satSlack     []float64     // per arc: classFill saturation tolerance
	satArcs      []int32       // classFill: arcs saturating at one event
	classRate    []float64     // per class: fill result / feasible rate
	classFrozen  []bool        // per class: classFill freeze marks
	classCut     []float64     // per class: feasibility cut of the pass
	classHopsExp []float64     // per class: expected hops incl. detours
	cands        congestedList // saturated-arc candidates of a round
	grantRecs    []grantRec    // detour grants of the current plan
	prevGrants   []float64     // per arc: grantsFor a pooling round started from
	scanArcs     []int32       // INRP: liveArcs ∪ lowCapArcs, ascending

	// Completion-heap state (heap.go): the event loop finds the next
	// completion by popping a lazily invalidated min-heap of projected
	// per-class finish times instead of scanning every active flow.
	cheap         completionHeap
	cseq          uint64    // push sequence, the deterministic tiebreak
	classGen      []uint32  // per class: generation of the live heap entry
	prevClassRate []float64 // per class: rate of the previous epoch
	classDirty    []bool    // per class: queued in dirtyClasses
	dirtyClasses  []int32   // classes whose heap entry must be refreshed
	candScratch   []completionEntry
	classMoved    []float64 // per class: bits moved this epoch
	classMovedHop []float64 // per class: hop-weighted bits this epoch
	finishScratch []int32   // slots finishing this epoch

	// Admission scratch, reused across admit() calls.
	arcScratch []topo.Arc
	idxScratch []int32

	satBits    float64 // Σ allocated rate × dt (demand-capped runs)
	demandBits float64 // Σ demanded rate × dt

	// Observability instruments (nil without Config.Obs; updates are then
	// nil-safe no-ops costing one nil check).
	mAllocFills   *obs.Counter
	mPoolRounds   *obs.Counter
	mPoolCreep    *obs.Counter
	mBackpressure *obs.Counter
	mAdmitted     *obs.Counter
	mFinished     *obs.Counter
	gActive       *obs.Gauge
	gClasses      *obs.Gauge
	sActive       *obs.Sampler
}

// arcIndex maps a directed arc to its dense index (2×link + direction).
func arcIndex(a topo.Arc) int32 { return int32(2*int(a.Link) + int(a.Dir)) }

// bitRate converts allocator floats back to the planner's unit type.
func bitRate(x float64) units.BitRate { return units.BitRate(x) }

// residualAdapter bridges the allocator's float residuals to the core
// planner's typed ResidualFunc.
func residualAdapter(f func(topo.Arc) float64) core.ResidualFunc {
	return func(a topo.Arc) units.BitRate { return units.BitRate(f(a)) }
}

func (r *runner) init() {
	links := r.g.NumLinks()
	r.nArcs = 2 * links
	r.capBase = make([]float64, r.nArcs)
	r.arcBack = make([]topo.Arc, r.nArcs)
	for _, l := range r.g.Links() {
		r.capBase[2*int(l.ID)] = float64(l.Capacity)
		r.capBase[2*int(l.ID)+1] = float64(l.Capacity)
		r.arcBack[2*int(l.ID)] = topo.Arc{Link: l.ID, Dir: topo.Forward}
		r.arcBack[2*int(l.ID)+1] = topo.Arc{Link: l.ID, Dir: topo.Reverse}
	}
	r.spTrees = make(map[topo.NodeID]*route.Tree)
	r.ecmp = make(map[topo.NodeID]*route.ECMP)
	if r.cfg.Policy == INRP {
		r.planner = core.NewPlanner(r.g, r.cfg.Planner)
		// Per-run tables of the pooling rounds (alloc.go).
		r.epsBase = make([]float64, r.nArcs)
		r.allArcs = make([]int32, r.nArcs)
		for a, c := range r.capBase {
			r.epsBase[a] = saturationEps(c)
			r.allArcs[a] = int32(a)
			if c <= r.epsBase[a] {
				r.lowCapArcs = append(r.lowCapArcs, int32(a))
			}
		}
		r.prevGrants = make([]float64, r.nArcs)
	}
	r.grantsFor = make([]float64, r.nArcs)
	r.detourLoad = make([]float64, r.nArcs)
	r.extraWeighted = make([]float64, r.nArcs)
	r.arcBusy = make([]float64, r.nArcs)
	r.classOf = make(map[string]int32)
	r.classBySrcDst = make(map[uint64]int32)
	r.arcClasses = make([][]int32, r.nArcs)
	r.capEff = make([]float64, r.nArcs)
	r.primaryLoad = make([]float64, r.nArcs)
	r.fillLoad = make([]float64, r.nArcs)
	r.fillWeight = make([]int, r.nArcs)
	r.arcWeight = make([]int, r.nArcs)
	r.satSlack = make([]float64, r.nArcs)
	r.residualFn = residualAdapter(func(b topo.Arc) float64 {
		bi := arcIndex(b)
		res := r.capBase[bi] - r.primaryLoad[bi] - r.detourLoad[bi]
		if res < 0 {
			return 0
		}
		return res
	})
	r.res.Policy = r.cfg.Policy
	if reg := r.cfg.Obs; reg != nil {
		r.mAllocFills = reg.Counter("flowsim_alloc_fills")
		r.mPoolRounds = reg.Counter("flowsim_pool_rounds")
		r.mPoolCreep = reg.Counter("flowsim_pool_creep")
		r.mBackpressure = reg.Counter("flowsim_backpressure_events")
		r.mAdmitted = reg.Counter("flowsim_flows_admitted")
		r.mFinished = reg.Counter("flowsim_flows_finished")
		r.gActive = reg.Gauge("flowsim_flows_active")
		r.gClasses = reg.Gauge("flowsim_flow_classes")
		r.sActive = reg.Sampler("flowsim_flows_active_series", 1024)
	}
}

// emitTrace writes one sim-time trace event; a no-op without a configured
// trace.
func (r *runner) emitTrace(event string, flow int, now, v float64) {
	if r.cfg.Trace == nil {
		return
	}
	r.cfg.Trace.Emit(obs.Event{
		Scenario: r.cfg.TraceLabel,
		T:        now,
		Event:    event,
		Flow:     flow,
		Value:    v,
	})
}

// pathFor routes a newly arrived flow according to the policy.
func (r *runner) pathFor(f workload.Flow) route.Path {
	switch r.cfg.Policy {
	case ECMP:
		e, ok := r.ecmp[f.Dst]
		if !ok {
			e = route.NewECMP(r.g, f.Dst)
			r.ecmp[f.Dst] = e
		}
		return e.PathFor(f.Src, uint64(f.ID)+0x9e3779b97f4a7c15)
	default: // SP and INRP use shortest-path primaries
		t, ok := r.spTrees[f.Src]
		if !ok {
			t = route.Dijkstra(r.g, f.Src, nil, nil)
			r.spTrees[f.Src] = t
		}
		return t.PathTo(f.Dst)
	}
}

// allocSlot returns a free flow slot, growing the arrays on demand.
func (r *runner) allocSlot() int32 {
	if n := len(r.freeSlots); n > 0 {
		s := r.freeSlots[n-1]
		r.freeSlots = r.freeSlots[:n-1]
		return s
	}
	r.slotID = append(r.slotID, 0)
	r.slotClass = append(r.slotClass, 0)
	r.slotArrival = append(r.slotArrival, 0)
	r.slotRem = append(r.slotRem, 0)
	r.slotSize = append(r.slotSize, 0)
	r.slotDeliv = append(r.slotDeliv, 0)
	r.slotHopBits = append(r.slotHopBits, 0)
	return int32(len(r.slotID) - 1)
}

// classForFlow resolves a new flow's class. SP and INRP primaries are
// deterministic per (src, dst), so the resolved class index is cached
// and repeat admissions skip routing — and its path allocation —
// entirely; ECMP paths depend on the flow-ID hash and are routed per
// flow.
func (r *runner) classForFlow(f workload.Flow) (int32, error) {
	key := uint64(uint32(f.Src))<<32 | uint64(uint32(f.Dst))
	if r.cfg.Policy != ECMP {
		if c, ok := r.classBySrcDst[key]; ok {
			return c, nil
		}
	}
	p := r.pathFor(f)
	if p == nil {
		return 0, fmt.Errorf("flowsim: flow %d: no path %d→%d", f.ID, f.Src, f.Dst)
	}
	arcs, err := p.ArcsAppend(r.g, r.arcScratch[:0])
	r.arcScratch = arcs
	if err != nil {
		return 0, err
	}
	idx := r.idxScratch[:0]
	for _, a := range arcs {
		idx = append(idx, arcIndex(a))
	}
	r.idxScratch = idx
	class := r.classFor(idx, float64(len(arcs)))
	if r.cfg.Policy != ECMP {
		r.classBySrcDst[key] = class
	}
	return class, nil
}

func (r *runner) admit(f workload.Flow, now float64) error {
	class, err := r.classForFlow(f)
	if err != nil {
		return err
	}
	cl := &r.classes[class]
	cl.weight++
	if cl.weight == 1 {
		r.classPos[class] = int32(len(r.liveClasses))
		r.liveClasses = append(r.liveClasses, class)
	}
	r.addArcWeight(cl, 1)
	s := r.allocSlot()
	r.slotID[s] = f.ID
	r.slotClass[s] = class
	r.slotArrival[s] = now
	r.slotRem[s] = f.Size.Bits()
	r.slotSize[s] = f.Size.Bits()
	r.slotDeliv[s] = 0
	r.slotHopBits[s] = 0
	r.activeOrder = append(r.activeOrder, s)
	r.memberPush(class, s)
	r.markDirty(class)
	r.res.Offered += f.Size
	r.res.Total++
	r.mAdmitted.Inc()
	r.gActive.Set(int64(len(r.activeOrder)))
	r.gClasses.Set(int64(len(r.classes)))
	r.emitTrace("flow_admit", f.ID, now, f.Size.Bits())
	return nil
}

// run is the fluid event loop: allocate, advance to the next event,
// repeat. Per event it costs O(active + classes): the earliest
// completion comes from the lazily invalidated completion heap
// (heap.go) instead of a per-flow scan, per-epoch drain deltas are
// computed once per class, and completions pop off the per-class
// member heaps rather than filtering the whole active set. The
// per-flow application of the class deltas walks activeOrder so every
// float accumulation chain (remaining, delivered, hopBits, arcBusy,
// satBits) is identical to the retained scan loop — runRef in
// equivalence_test.go — bit for bit.
func (r *runner) run() (*Result, error) {
	flows := r.cfg.Flows
	next := 0
	now := 0.0
	horizon := math.Inf(1)
	if r.cfg.Horizon > 0 {
		horizon = r.cfg.Horizon.Seconds()
	}

	// Admit flows arriving at t=0 (or the first batch).
	for next < len(flows) && flows[next].Arrival.Seconds() <= now+arrivalSlack {
		if err := r.admit(flows[next], now); err != nil {
			return nil, err
		}
		next++
	}

	for now < horizon && (len(r.activeOrder) > 0 || next < len(flows)) {
		classRate := r.allocateClasses()
		r.refreshCompletions(now, classRate)

		// Next event: first arrival or earliest completion.
		tEvent := horizon
		if next < len(flows) {
			if ta := flows[next].Arrival.Seconds(); ta < tEvent {
				tEvent = ta
			}
		}
		if tc := r.nextCompletion(now); tc < tEvent {
			tEvent = tc
		}
		if math.IsInf(tEvent, 1) || tEvent <= now {
			// Nothing can progress (all rates zero, no arrivals — or the
			// earliest completion rounds to now): jump to the next arrival
			// or stop.
			if next < len(flows) {
				tEvent = flows[next].Arrival.Seconds()
			} else {
				break
			}
		}
		dt := tEvent - now

		// Per-class drain deltas of this epoch. Every unclamped member of
		// a class receives the identical moved/hop-weighted increments, so
		// both multiplications happen once per class, not once per flow.
		for _, c := range r.liveClasses {
			m := classRate[c] * dt
			r.classMoved[c] = m
			r.classMovedHop[c] = m * r.classHopsExp[c]
		}

		// Advance flows and per-arc utilisation accounting. The arcBusy
		// and satBits accumulators stay per-flow in admission order — the
		// golden fixtures pin their full-precision values, and float
		// addition is order-sensitive — but all operands are the shared
		// class deltas above.
		finishers := r.finishScratch[:0]
		for _, s := range r.activeOrder {
			c := r.slotClass[s]
			moved := r.classMoved[c]
			rem := r.slotRem[s]
			if moved == 0 {
				if rem <= finishEps {
					finishers = append(finishers, s)
				}
				continue
			}
			if moved > rem {
				moved = rem
				r.slotHopBits[s] += moved * r.classHopsExp[c]
			} else {
				r.slotHopBits[s] += r.classMovedHop[c]
			}
			r.slotRem[s] = rem - moved
			r.slotDeliv[s] += moved
			for _, a := range r.classes[c].arcs {
				r.arcBusy[a] += moved
			}
			r.satBits += moved
			if r.slotRem[s] <= finishEps {
				finishers = append(finishers, s)
			}
		}
		if r.cfg.DemandCap > 0 {
			r.demandBits += float64(r.cfg.DemandCap) * float64(len(r.activeOrder)) * dt
		}
		if r.cfg.Policy == INRP {
			r.detourBits += r.detourRate * dt
		}
		now = tEvent

		// Completions: each finisher is, by the uniform-drain order
		// invariant, at the front of its class member heap — pop it,
		// invalidate the class's projected completion, and account the
		// flow in admission order (the order finishers were collected).
		if len(finishers) > 0 {
			for _, s := range finishers {
				c := r.slotClass[s]
				r.memberPop(c)
				r.markDirty(c)
				r.finishSlot(s, now)
			}
			kept := r.activeOrder[:0]
			for _, s := range r.activeOrder {
				if r.slotRem[s] <= finishEps {
					continue
				}
				kept = append(kept, s)
			}
			r.activeOrder = kept
		}
		r.finishScratch = finishers[:0]
		r.gActive.Set(int64(len(r.activeOrder)))
		if r.sActive != nil {
			r.sActive.Sample(time.Duration(now*float64(time.Second)), float64(len(r.activeOrder)))
		}

		// Arrivals at the new time.
		for next < len(flows) && flows[next].Arrival.Seconds() <= now+arrivalSlack {
			if err := r.admit(flows[next], now); err != nil {
				return nil, err
			}
			next++
		}
	}

	// Horizon reached: account bytes moved by still-active flows.
	for _, s := range r.activeOrder {
		r.res.Delivered += units.ByteSize(r.slotDeliv[s] / 8)
	}
	r.finalize(now)
	return &r.res, nil
}

// finishSlot retires one completed flow: class weight, result counters,
// FCT/stretch samples, trace — and returns the slot to the free list.
// Member-heap maintenance is the caller's job (the event loop pops the
// class front; test drivers finishing arbitrary flows skip it).
func (r *runner) finishSlot(s int32, now float64) {
	c := r.slotClass[s]
	r.classes[c].weight--
	r.addArcWeight(&r.classes[c], -1)
	if r.classes[c].weight == 0 {
		// The class dies: drop it from the live list (swap-remove) and
		// restore the dead-class invariant the allocator's freeze sweeps
		// rely on — frozen, rate zero.
		p := r.classPos[c]
		last := r.liveClasses[len(r.liveClasses)-1]
		r.liveClasses[p] = last
		r.classPos[last] = p
		r.liveClasses = r.liveClasses[:len(r.liveClasses)-1]
		r.classPos[c] = -1
		r.classFrozen[c] = true
		r.classRate[c] = 0
	}
	r.res.Completed++
	r.res.Delivered += units.ByteSize(r.slotDeliv[s] / 8)
	fct := now - r.slotArrival[s]
	if fct <= 0 {
		fct = 1e-9
	}
	r.res.FCTSeconds.Add(fct)
	r.mFinished.Inc()
	r.emitTrace("flow_finish", r.slotID[s], now, fct)
	r.res.MeanRates = append(r.res.MeanRates, r.slotSize[s]/fct)
	if hops := r.classes[c].hops; hops > 0 && r.slotDeliv[s] > 0 {
		r.res.Stretch = append(r.res.Stretch, r.slotHopBits[s]/(r.slotDeliv[s]*hops))
	}
	r.freeSlots = append(r.freeSlots, s)
}

func (r *runner) finalize(now float64) {
	r.res.Duration = time.Duration(now * float64(time.Second))
	if r.res.Offered > 0 {
		r.res.GoodputRatio = float64(r.res.Delivered) / float64(r.res.Offered)
	}
	var busy, capTime float64
	for a := 0; a < r.nArcs; a++ {
		busy += r.arcBusy[a]
		capTime += r.capBase[a] * now
	}
	if capTime > 0 {
		r.res.Utilization = busy / capTime
	}
	r.res.Jain = stats.JainIndex(r.res.MeanRates)
	if r.res.Delivered > 0 {
		r.res.DetouredShare = r.detourBits / r.res.Delivered.Bits()
	}
	if r.demandBits > 0 {
		r.res.DemandSatisfied = r.satBits / r.demandBits
	}
}
