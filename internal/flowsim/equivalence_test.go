package flowsim

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// This file keeps the seed's per-flow allocator alive as the equivalence
// oracle for the flow-class allocator: allocateRef below is the original
// implementation (progressiveFill over individual flows, per-flow
// feasibility), extended only by the same detour-grant shrink fix the
// class-based path gained. The property tests drive both allocators over
// random graphs and workloads — elastic and demand-capped, SP and INRP
// with pooling rounds, across admit/finish churn — and require
// bit-identical rates, expected hops and back-pressure counts.
//
// It also retains the scan-based event loop as runRef: the oracle for
// the completion-heap loop in run(). TestRunHeapVsScanEquivalence
// requires the two loops to produce DeepEqual Results — every float in
// every field — over random graphs, workloads and policies.

// allocateRef is the retained per-flow reference allocator.
func (r *runner) allocateRef() (rates []float64, hopsExp []float64) {
	paths := make([][]int32, len(r.activeOrder))
	hopsExp = make([]float64, len(r.activeOrder))
	for i, s := range r.activeOrder {
		cl := &r.classes[r.slotClass[s]]
		paths[i] = cl.arcs
		hopsExp[i] = cl.hops
	}
	var caps []float64
	if r.cfg.DemandCap > 0 {
		caps = make([]float64, len(r.activeOrder))
		for i := range caps {
			caps[i] = float64(r.cfg.DemandCap)
		}
	}

	if r.cfg.Policy != INRP {
		r.detourRate = 0
		return progressiveFill(paths, r.capBase, caps), hopsExp
	}
	return r.allocateINRPRef(paths, hopsExp, caps)
}

// allocateINRPRef is the seed per-flow pooling fixpoint.
func (r *runner) allocateINRPRef(paths [][]int32, hopsExp []float64, caps []float64) ([]float64, []float64) {
	n := r.nArcs
	zero(r.grantsFor)
	zero(r.detourLoad)
	zero(r.extraWeighted)
	r.grantRecs = r.grantRecs[:0]

	capEff := make([]float64, n)
	primaryLoad := make([]float64, n)
	var rates []float64

	for round := 0; round < r.cfg.PoolingRounds; round++ {
		final := round == r.cfg.PoolingRounds-1

		for a := 0; a < n; a++ {
			capEff[a] = r.capBase[a] + r.grantsFor[a]
		}
		rates = progressiveFill(paths, capEff, caps)

		zero(primaryLoad)
		for i, p := range paths {
			for _, a := range p {
				primaryLoad[a] += rates[i]
			}
		}

		var cands []congested
		for a := 0; a < n; a++ {
			over := primaryLoad[a] - r.capBase[a]
			saturated := r.capBase[a]-primaryLoad[a] <= saturationEps(r.capBase[a])
			if over > saturationEps(r.capBase[a]) || (!final && saturated) {
				cands = append(cands, congested{arc: a, over: over})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].over != cands[j].over {
				return cands[i].over > cands[j].over
			}
			return cands[i].arc < cands[j].arc
		})

		zero(r.grantsFor)
		zero(r.detourLoad)
		zero(r.extraWeighted)
		r.grantRecs = r.grantRecs[:0]
		for _, c := range cands {
			req := primaryLoad[c.arc] + r.detourLoad[c.arc] - r.capBase[c.arc]
			if !final {
				req = optimisticOverflow
			}
			if req <= 0 {
				continue
			}
			a := c.arc
			residual := func(b topo.Arc) float64 {
				bi := arcIndex(b)
				res := r.capBase[bi] - primaryLoad[bi] - r.detourLoad[bi]
				if res < 0 {
					return 0
				}
				return res
			}
			grants, _ := r.planner.Plan(r.arcBack[a], bitRate(req), residualAdapter(residual))
			for _, gr := range grants {
				rate := float64(gr.Rate)
				r.grantsFor[a] += rate
				r.extraWeighted[a] += rate * float64(gr.Sub.Extra)
				for _, b := range gr.Arcs {
					r.detourLoad[arcIndex(b)] += rate
				}
				r.grantRecs = append(r.grantRecs, grantRec{
					src: a, rate: rate, extra: float64(gr.Sub.Extra), arcs: gr.Arcs,
				})
			}
		}
	}

	r.enforceFeasibilityRef(paths, rates, primaryLoad)

	r.detourRate = 0
	for a := 0; a < r.nArcs; a++ {
		r.detourRate += r.grantsFor[a]
	}
	for i, p := range paths {
		extra := 0.0
		for _, a := range p {
			if r.grantsFor[a] <= 0 || primaryLoad[a] <= 0 {
				continue
			}
			phi := r.grantsFor[a] / primaryLoad[a]
			if phi > 1 {
				phi = 1
			}
			extra += phi * (r.extraWeighted[a] / r.grantsFor[a])
		}
		hopsExp[i] += extra
	}
	return rates, hopsExp
}

// enforceFeasibilityRef is the seed per-flow back-pressure pass, with the
// detour-only overload branch fixed the same way as the class-based path
// (shared shrinkGrants helper).
func (r *runner) enforceFeasibilityRef(paths [][]int32, rates, primaryLoad []float64) {
	for pass := 0; pass < r.nArcs; pass++ {
		worst, worstExcess := -1, 0.0
		for a := 0; a < r.nArcs; a++ {
			direct := primaryLoad[a] - r.grantsFor[a]
			excess := direct + r.detourLoad[a] - r.capBase[a]
			if excess > saturationEps(r.capBase[a])+1e-9 && excess > worstExcess {
				worst, worstExcess = a, excess
			}
		}
		if worst < 0 {
			return
		}
		r.res.Backpressured++
		if primaryLoad[worst] <= 0 {
			if !r.shrinkGrants(worst, worstExcess) {
				return
			}
			continue
		}
		factor := 1 - worstExcess/primaryLoad[worst]
		if factor < 0 {
			factor = 0
		}
		for i, p := range paths {
			onArc := false
			for _, a := range p {
				if a == int32(worst) {
					onArc = true
					break
				}
			}
			if !onArc {
				continue
			}
			cut := rates[i] * (1 - factor)
			rates[i] -= cut
			for _, a := range p {
				primaryLoad[a] -= cut
			}
		}
	}
}

// newTestRunner builds an initialised runner over g without running the
// event loop.
func newTestRunner(t *testing.T, g *topo.Graph, pol Policy, cap units.BitRate) *runner {
	t.Helper()
	cfg := Config{Graph: g, Policy: pol, DemandCap: cap}
	cfg.PoolingRounds = 4
	cfg.Planner = core.DefaultPlannerConfig()
	r := &runner{cfg: cfg, g: g}
	r.init()
	return r
}

// exitPaths counts how the INRP pooling fixpoint ended, per allocation,
// read off the flowsim_pool_rounds counter: fills is the number of
// fills one allocateINRP call ran with rounds the configured cap.
type exitPaths struct {
	single    int // PoolingRounds = 1: the final round is the only one
	noCands   int // round 0 granted nothing, so it converged at once
	converged int // converged after k ≥ 1 rounds on non-zero grants
	exhausted int // never converged: every round filled
}

func (p *exitPaths) record(t *testing.T, trial int, rounds int, fills int64) {
	t.Helper()
	switch {
	case fills < 1 || fills > int64(rounds):
		t.Fatalf("trial %d: %d fills with PoolingRounds %d", trial, fills, rounds)
	case rounds == 1:
		p.single++
	case fills == int64(rounds):
		p.exhausted++
	case fills == 1:
		p.noCands++
	default:
		p.converged++
	}
}

// randomGraph samples a small random connected topology.
func randomGraph(rng *rand.Rand) *topo.Graph {
	var g *topo.Graph
	switch rng.Intn(3) {
	case 0:
		g = topo.ErdosRenyi(6+rng.Intn(10), 0.35, rng.Int63())
	case 1:
		g = topo.BarabasiAlbert(8+rng.Intn(10), 2, rng.Int63())
	default:
		g = topo.Waxman(8+rng.Intn(8), 0.6, 0.4, rng.Int63())
	}
	topo.Connect(g)
	// Tight uniform capacities put many arcs near saturation, making the
	// fill's freeze ordering nontrivial.
	g.SetAllCapacities(units.BitRate(50+rng.Intn(200)) * units.Mbps)
	return g
}

// checkEqual requires two allocations to be bit-identical.
func checkEqual(t *testing.T, trial int, what string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("trial %d: %s length %d vs %d", trial, what, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("trial %d: %s[%d] differs: reference %v, class-based %v (Δ=%g)",
				trial, what, i, ref[i], got[i], got[i]-ref[i])
		}
	}
}

// driveEquivalence admits a random workload in arrival order, invoking
// both allocators after every admit batch and after random finishes, and
// requires bit-identical outputs throughout.
//
// With paths non-nil the runner must carry a registry: each class-based
// INRP allocation's exit path is then counted from its fills.
func driveEquivalence(t *testing.T, trial int, r *runner, flows []workload.Flow, rng *rand.Rand, paths *exitPaths) {
	t.Helper()
	next := 0
	for next < len(flows) || len(r.activeOrder) > 0 {
		// Admit a batch.
		batch := 1 + rng.Intn(4)
		for b := 0; b < batch && next < len(flows); b++ {
			if err := r.admit(flows[next], flows[next].Arrival.Seconds()); err != nil {
				// Unreachable endpoint in a random graph: skip the flow.
				next++
				b--
				continue
			}
			next++
		}

		bp := r.res.Backpressured
		refRates, refHops := r.allocateRef()
		refBP := r.res.Backpressured - bp
		refDetour := r.detourRate
		// Copy: the reference shares no buffers with allocate, but keep
		// the comparison honest against scratch reuse.
		refRates = append([]float64(nil), refRates...)
		refHops = append([]float64(nil), refHops...)

		r.res.Backpressured = bp
		fills0 := r.mPoolRounds.Value()
		rates, hops := r.allocate()
		gotBP := r.res.Backpressured - bp
		if paths != nil && r.cfg.Policy == INRP {
			paths.record(t, trial, r.cfg.PoolingRounds, r.mPoolRounds.Value()-fills0)
		}

		checkEqual(t, trial, "rates", refRates, rates)
		checkEqual(t, trial, "hopsExp", refHops, hops)
		if refBP != gotBP {
			t.Fatalf("trial %d: Backpressured %d (reference) vs %d (class-based)", trial, refBP, gotBP)
		}
		if refDetour != r.detourRate {
			t.Fatalf("trial %d: detourRate %v vs %v", trial, refDetour, r.detourRate)
		}

		// Finish a random subset, exercising incremental class membership
		// (and slot reuse: finished slots return to the free list).
		if len(r.activeOrder) > 0 && rng.Intn(2) == 0 {
			kept := r.activeOrder[:0]
			for _, s := range r.activeOrder {
				if rng.Intn(3) == 0 {
					r.finishSlot(s, r.slotArrival[s]+1)
					continue
				}
				kept = append(kept, s)
			}
			r.activeOrder = kept
		}
		if next >= len(flows) {
			// Drain everything to terminate.
			for _, s := range r.activeOrder {
				r.finishSlot(s, r.slotArrival[s]+1)
			}
			r.activeOrder = r.activeOrder[:0]
		}
	}
}

// TestClassAllocatorEquivalence is the tentpole property test: on random
// graphs and workloads, the class-based allocator must produce
// bit-identical rates and expected hops to the retained per-flow
// reference — elastic and demand-capped, for all three policies.
func TestClassAllocatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		pol := []Policy{SP, ECMP, INRP}[rng.Intn(3)]
		var cap units.BitRate
		if rng.Intn(2) == 0 {
			cap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		r := newTestRunner(t, g, pol, cap)
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(20, rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    10 + rng.Intn(40),
		})
		driveEquivalence(t, trial, r, flows, rng, nil)
	}
}

// TestPoolingFixpointExitPaths widens the equivalence harness to every
// way the INRP pooling fixpoint can end: PoolingRounds from 1 to 6, blind
// and capacity-aware planning, and mixed link capacities including
// zero-capacity links (arcs saturated while idle). Every allocation must
// stay bit-identical to allocateINRPRef, which always runs every round,
// and each exit path must be taken at least once: no candidates,
// converged after k ≥ 1 rounds on non-zero grants, and never converged.
func TestPoolingFixpointExitPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	trials := 80
	if testing.Short() {
		trials = 24
	}
	var paths exitPaths
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		links := g.Links()
		for i := range links {
			switch rng.Intn(8) {
			case 0:
				links[i].Capacity = 0
			case 1, 2:
				links[i].Capacity = units.BitRate(10+rng.Intn(1000)) * units.Mbps
			}
		}
		cfg := Config{
			Graph:         g,
			Policy:        INRP,
			PoolingRounds: 1 + rng.Intn(6),
			Planner:       core.DefaultPlannerConfig(),
			Obs:           obs.New("exit-paths"),
		}
		if rng.Intn(2) == 0 {
			cfg.Planner.Mode = core.Blind
		}
		if rng.Intn(2) == 0 {
			cfg.DemandCap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		r := &runner{cfg: cfg, g: g}
		r.init()
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(20, rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    10 + rng.Intn(40),
		})
		driveEquivalence(t, trial, r, flows, rng, &paths)
	}
	t.Logf("exit paths: %+v", paths)
	if paths.single == 0 || paths.noCands == 0 || paths.converged == 0 || paths.exhausted == 0 {
		t.Fatalf("an exit path was never taken: %+v", paths)
	}
}

// TestClassFillMatchesProgressiveFill drives the weighted class fill
// directly against the per-flow reference on synthetic path sets with
// duplicate paths and mixed caps — including empty paths (unconstrained
// flows) and zero-capacity arcs.
func TestClassFillMatchesProgressiveFill(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng)
		var cap units.BitRate
		if rng.Intn(2) == 0 {
			cap = units.BitRate(10+rng.Intn(60)) * units.Mbps
		}
		r := newTestRunner(t, g, SP, cap)

		// Admit random flows, many sharing (src, dst) so classes collapse.
		nPairs := 1 + rng.Intn(5)
		type pair struct{ src, dst topo.NodeID }
		pairs := make([]pair, nPairs)
		for i := range pairs {
			pairs[i] = pair{topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))}
		}
		id := 0
		for i := 0; i < 3+rng.Intn(30); i++ {
			p := pairs[rng.Intn(nPairs)]
			f := workload.Flow{ID: id, Src: p.src, Dst: p.dst, Size: units.MB}
			if err := r.admit(f, 0); err != nil {
				continue
			}
			id++
		}

		paths := make([][]int32, len(r.activeOrder))
		for i, s := range r.activeOrder {
			paths[i] = r.classes[r.slotClass[s]].arcs
		}
		var caps []float64
		if cap > 0 {
			caps = make([]float64, len(r.activeOrder))
			for i := range caps {
				caps[i] = float64(cap)
			}
		}
		ref := progressiveFill(paths, r.capBase, caps)
		classRate := r.classFill(r.capBase)
		for i, s := range r.activeOrder {
			if ref[i] != classRate[r.slotClass[s]] {
				t.Fatalf("trial %d: flow %d rate %v (per-flow) vs %v (class)",
					trial, i, ref[i], classRate[r.slotClass[s]])
			}
		}
	}
}

// runRef is the retained scan-based event loop, the oracle for the
// completion-heap loop: per event it scans every active flow for the
// earliest completion, advances each flow by its own rate×dt product,
// and filters completions out of the active list. Identical to the
// pre-heap run() except for operating on the slot arrays.
func (r *runner) runRef() (*Result, error) {
	flows := r.cfg.Flows
	next := 0
	now := 0.0
	horizon := math.Inf(1)
	if r.cfg.Horizon > 0 {
		horizon = r.cfg.Horizon.Seconds()
	}

	for next < len(flows) && flows[next].Arrival.Seconds() <= now+arrivalSlack {
		if err := r.admit(flows[next], now); err != nil {
			return nil, err
		}
		next++
	}

	for now < horizon && (len(r.activeOrder) > 0 || next < len(flows)) {
		rates, hopsExp := r.allocate()

		// Next event: first arrival or earliest completion.
		tEvent := horizon
		if next < len(flows) {
			if ta := flows[next].Arrival.Seconds(); ta < tEvent {
				tEvent = ta
			}
		}
		for i, s := range r.activeOrder {
			if rates[i] <= 0 {
				continue
			}
			tc := now + r.slotRem[s]/rates[i]
			if tc < tEvent {
				tEvent = tc
			}
		}
		if math.IsInf(tEvent, 1) || tEvent <= now {
			if next < len(flows) {
				tEvent = flows[next].Arrival.Seconds()
			} else {
				break
			}
		}
		dt := tEvent - now

		// Advance flows and per-arc utilisation accounting.
		for i, s := range r.activeOrder {
			moved := rates[i] * dt
			if moved > r.slotRem[s] {
				moved = r.slotRem[s]
			}
			r.slotRem[s] -= moved
			r.slotDeliv[s] += moved
			r.slotHopBits[s] += moved * hopsExp[i]
			for _, a := range r.classes[r.slotClass[s]].arcs {
				r.arcBusy[a] += moved
			}
			r.satBits += moved
		}
		if r.cfg.DemandCap > 0 {
			r.demandBits += float64(r.cfg.DemandCap) * float64(len(r.activeOrder)) * dt
		}
		if r.cfg.Policy == INRP {
			r.detourBits += r.detourRate * dt
		}
		now = tEvent

		// Completions.
		kept := r.activeOrder[:0]
		for _, s := range r.activeOrder {
			if r.slotRem[s] <= finishEps {
				r.finishSlot(s, now)
				continue
			}
			kept = append(kept, s)
		}
		r.activeOrder = kept
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

	for _, s := range r.activeOrder {
		r.res.Delivered += units.ByteSize(r.slotDeliv[s] / 8)
	}
	r.finalize(now)
	return &r.res, nil
}

// runPair executes the same config through the heap loop and the scan
// oracle on two fresh runners and returns both results.
func runPair(t *testing.T, cfg Config) (heap, scan *Result) {
	t.Helper()
	if cfg.PoolingRounds <= 0 {
		cfg.PoolingRounds = 4
	}
	if cfg.Planner == (core.PlannerConfig{}) {
		cfg.Planner = core.DefaultPlannerConfig()
	}
	mk := func() *runner {
		r := &runner{cfg: cfg, g: cfg.Graph}
		r.init()
		return r
	}
	var err error
	if heap, err = mk().run(); err != nil {
		t.Fatal(err)
	}
	if scan, err = mk().runRef(); err != nil {
		t.Fatal(err)
	}
	return heap, scan
}

// checkRunEqual requires the two loops' Results to be deeply equal —
// bit-identical floats in every scalar and every slice.
func checkRunEqual(t *testing.T, trial int, heap, scan *Result) {
	t.Helper()
	if !reflect.DeepEqual(*heap, *scan) {
		t.Fatalf("trial %d: heap loop diverged from scan oracle\nheap: %+v\nscan: %+v",
			trial, *heap, *scan)
	}
}

// TestRunHeapVsScanEquivalence is the event-loop property test: over
// random graphs, workloads and policies — elastic and demand-capped,
// arrival churn, zero-rate stalls from zero-capacity links, finite and
// unbounded horizons — the completion-heap loop must produce a Result
// DeepEqual to the retained scan loop's.
func TestRunHeapVsScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 48
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		if rng.Intn(3) == 0 {
			// Zero out a few links: classes crossing them get rate 0 and
			// stall, exercising the jump-to-arrival and stall-break paths.
			links := g.Links()
			for k := 0; k < 1+rng.Intn(3); k++ {
				links[rng.Intn(len(links))].Capacity = 0
			}
		}
		cfg := Config{
			Graph:  g,
			Policy: []Policy{SP, ECMP, INRP}[rng.Intn(3)],
		}
		if rng.Intn(2) == 0 {
			cfg.DemandCap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		if rng.Intn(2) == 0 {
			cfg.Horizon = time.Duration(1+rng.Intn(2000)) * time.Millisecond
		}
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(float64(5+rng.Intn(40)), rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    5 + rng.Intn(60),
		})
		cfg.Flows = flows
		heap, scan := runPairSkipUnrouted(t, trial, cfg)
		if heap == nil {
			continue
		}
		checkRunEqual(t, trial, heap, scan)
	}
}

// runPairSkipUnrouted is runPair, except trials whose workload hits a
// disconnected src/dst pair are skipped (both loops must agree that the
// run errors).
func runPairSkipUnrouted(t *testing.T, trial int, cfg Config) (heap, scan *Result) {
	t.Helper()
	if cfg.PoolingRounds <= 0 {
		cfg.PoolingRounds = 4
	}
	if cfg.Planner == (core.PlannerConfig{}) {
		cfg.Planner = core.DefaultPlannerConfig()
	}
	mk := func() *runner {
		r := &runner{cfg: cfg, g: cfg.Graph}
		r.init()
		return r
	}
	heap, errHeap := mk().run()
	scan, errScan := mk().runRef()
	if (errHeap == nil) != (errScan == nil) {
		t.Fatalf("trial %d: heap err %v, scan err %v", trial, errHeap, errScan)
	}
	if errHeap != nil {
		return nil, nil
	}
	return heap, scan
}

// TestSameGrantsBitExact pins the fixpoint's convergence test to bit
// equality: grants one ulp apart are different grants, and an input
// without grants only matches an output without grants.
func TestSameGrantsBitExact(t *testing.T) {
	r := newTestRunner(t, topo.Line(3), INRP, 0)
	grant := func(rate float64) {
		r.resetGrants()
		r.grantsFor[1] = rate
		r.grantRecs = append(r.grantRecs, grantRec{src: 1, rate: rate})
	}
	grant(3e6)
	copy(r.prevGrants, r.grantsFor)
	if !r.sameGrants(true) {
		t.Error("identical grants not recognised as converged")
	}
	grant(math.Nextafter(3e6, math.Inf(1)))
	if r.sameGrants(true) {
		t.Error("grants one ulp apart treated as converged")
	}
	if r.sameGrants(false) {
		t.Error("grants out of a grant-free input treated as converged")
	}
	r.resetGrants()
	if !r.sameGrants(false) {
		t.Error("grant-free round not recognised as converged")
	}
	if r.sameGrants(true) {
		t.Error("grants dropped to none treated as converged")
	}
}

// checkArcIndex recounts the per-arc weights from scratch — one unit per
// live flow on every arc of its class — and requires the incrementally
// kept arcWeight and liveArcs to equal the recount, and primaryLoad to
// read zero on every arc outside liveArcs.
func checkArcIndex(t *testing.T, trial int, r *runner, live []int32, after string) {
	t.Helper()
	want := make([]int, r.nArcs)
	for _, s := range live {
		for _, a := range r.classes[r.slotClass[s]].arcs {
			want[a]++
		}
	}
	var wantLive []int32
	for a, w := range want {
		if w > 0 {
			wantLive = append(wantLive, int32(a))
		}
	}
	if !slices.Equal(r.arcWeight, want) {
		t.Fatalf("trial %d, after %s: arcWeight %v, recount %v", trial, after, r.arcWeight, want)
	}
	if !slices.Equal(r.liveArcs, wantLive) {
		t.Fatalf("trial %d, after %s: liveArcs %v, recount %v", trial, after, r.liveArcs, wantLive)
	}
	for a, l := range r.primaryLoad {
		if want[a] == 0 && l != 0 {
			t.Fatalf("trial %d, after %s: idle arc %d has primaryLoad %v", trial, after, a, l)
		}
	}
}

// TestArcIndexMatchesRecount is the property test of the live-arc index
// the fill is seeded from: under SP, ECMP and INRP, elastic and
// demand-capped, arcWeight and liveArcs must equal a from-scratch
// recount after every admit and every finishSlot — when a driver
// finishes arbitrary flows between allocations, and when the event loop
// finishes them off its completion heap.
func TestArcIndexMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	trials := 45
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		g := randomGraph(rng)
		pol := []Policy{SP, ECMP, INRP}[trial%3]
		var cap units.BitRate
		if rng.Intn(2) == 0 {
			cap = units.BitRate(20+rng.Intn(100)) * units.Mbps
		}
		flows := workload.Generate(workload.Spec{
			Arrivals: workload.NewPoisson(20, rng.Int63()),
			Sizes:    workload.NewBoundedPareto(1.5, units.MB, 100*units.MB, rng.Int63()),
			Matrix:   workload.NewGravity(g, rng.Int63()),
			Count:    10 + rng.Intn(40),
		})

		r := newTestRunner(t, g, pol, cap)
		var live []int32
		next := 0
		for next < len(flows) || len(live) > 0 {
			for b := 1 + rng.Intn(4); b > 0 && next < len(flows); b-- {
				f := flows[next]
				next++
				if err := r.admit(f, f.Arrival.Seconds()); err != nil {
					continue // unreachable endpoint in a random graph
				}
				live = append(live, r.activeOrder[len(r.activeOrder)-1])
				checkArcIndex(t, trial, r, live, "admit")
			}
			r.allocate()
			checkArcIndex(t, trial, r, live, "allocate")
			// Finish an arbitrary subset, everything once arrivals run out.
			for i := 0; i < len(live); {
				s := live[i]
				if next < len(flows) && rng.Intn(3) != 0 {
					i++
					continue
				}
				r.finishSlot(s, r.slotArrival[s]+1)
				live = slices.Delete(live, i, i+1)
				checkArcIndex(t, trial, r, live, "finishSlot")
			}
			r.activeOrder = append(r.activeOrder[:0], live...)
		}

		// The event loop's own admits and finishes, checked where it
		// stops: at the horizon some flows are still live.
		cfg := r.cfg
		cfg.Flows = flows
		cfg.Horizon = time.Duration(1+rng.Intn(3000)) * time.Millisecond
		rr := &runner{cfg: cfg, g: g}
		rr.init()
		if _, err := rr.run(); err != nil {
			continue
		}
		checkArcIndex(t, trial, rr, rr.activeOrder, "run")
	}
}
