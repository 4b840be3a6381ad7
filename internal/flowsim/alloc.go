package flowsim

import (
	"math"
	"slices"
	"sort"

	"repro/internal/topo"
)

// optimisticOverflow is the practically-infinite overflow request used by
// non-final pooling rounds; the planner caps grants by donor residuals.
const optimisticOverflow = 1e15 // 1 Pbps

// allocateClasses computes the current per-class rates (bits/s) and
// fills classHopsExp with each class's expected hop count (primary hops
// plus the rate-weighted detour extension), according to the configured
// policy. The returned slice is runner-owned scratch (classRate), valid
// until the next call; the whole path is allocation-free in steady
// state. The event loop consumes class rates directly — per-flow
// expansion exists only for the retained reference loop and tests.
func (r *runner) allocateClasses() []float64 {
	r.mAllocFills.Inc()
	if r.cfg.Policy != INRP {
		r.detourRate = 0
		classRate := r.classFill(r.capBase)
		for _, c := range r.liveClasses {
			r.classHopsExp[c] = r.classes[c].hops
		}
		return classRate
	}
	return r.allocateINRP()
}

// allocate expands the class-level allocation into per-flow rate and
// expected-hop slices, indexed in admission (activeOrder) order. Both
// returned slices are runner-owned scratch, valid until the next call.
func (r *runner) allocate() (rates []float64, hopsExp []float64) {
	classRate := r.allocateClasses()
	n := len(r.activeOrder)
	rates = growFloats(&r.ratesBuf, n)
	hopsExp = growFloats(&r.hopsBuf, n)
	for i, s := range r.activeOrder {
		c := r.slotClass[s]
		rates[i] = classRate[c]
		hopsExp[i] = r.classHopsExp[c]
	}
	return rates, hopsExp
}

// grantRec records one detour grant of the current plan: the congested
// source arc it relieves, its rate, the extra hops of its sub-path, and
// the donor arcs it lands on. The arcs slice references the planner's
// per-link candidate cache (stable for the planner's lifetime), so
// recording a grant allocates nothing. The feasibility pass uses these
// records to shrink over-grants when an arc is overloaded by landed
// detour traffic alone.
type grantRec struct {
	src   int // arc index the grant relieves
	rate  float64
	extra float64
	arcs  []topo.Arc // donor arcs the grant lands on
}

// congested is one saturated/overloaded arc candidate of a pooling round.
type congested struct {
	arc  int
	over float64
}

// congestedList orders candidates worst-overflow-first with the arc index
// as a deterministic tiebreak; the order is total, so any sorting
// algorithm yields the same permutation.
type congestedList []congested

func (l congestedList) Len() int { return len(l) }
func (l congestedList) Less(i, j int) bool {
	if l[i].over != l[j].over {
		return l[i].over > l[j].over
	}
	return l[i].arc < l[j].arc
}
func (l congestedList) Swap(i, j int) { l[i], l[j] = l[j], l[i] }

// allocateINRP runs the pooling fixpoint of §3: fill max-min on primary
// paths, shift each saturated arc's overflow onto detour sub-paths with
// spare capacity (capacity-aware, via the core planner), fold the pooled
// capacity back into the filling, and iterate. Overflow that no detour
// can absorb is back-pressured: the affected flows are rate-capped in a
// final feasibility pass.
//
// A round's only input from earlier rounds is grantsFor: the fill, the
// primary loads and the (stateless) planner are fixed functions of it.
// So once a non-final round hands the next one the very grants it was
// given, every later non-final round would repeat it bit for bit, and
// the final round's fill would reproduce the fill at hand. The fixpoint
// then skips straight to the final round, reusing that fill; only the
// final round's own planning (real overflow, no optimistic requests)
// still runs. PoolingRounds stays the cap on rounds.
func (r *runner) allocateINRP() []float64 {
	r.resetGrants()
	classRate := r.poolFill()
	r.buildScanArcs()
	for round := 0; ; round++ {
		final := round == r.cfg.PoolingRounds-1
		hadGrants := len(r.grantRecs) > 0
		if hadGrants && !final {
			copy(r.prevGrants, r.grantsFor)
		}
		r.planRound(final)
		if final {
			break
		}
		if r.sameGrants(hadGrants) {
			// Converged: the final round's fill is the one at hand.
			round = r.cfg.PoolingRounds - 2
			continue
		}
		if round == r.cfg.PoolingRounds-2 {
			// The round cap cuts the fixpoint off with the grants still
			// moving.
			r.mPoolCreep.Inc()
		}
		classRate = r.poolFill()
	}

	// Final feasibility (back-pressure) pass: any arc whose direct traffic
	// plus landed detour traffic still exceeds capacity caps the flows
	// crossing it. Grants are consistent with the final loads by
	// construction, so violations only stem from unplaced overflow.
	r.enforceFeasibility(classRate, r.primaryLoad)

	// Stretch expectation and aggregate detour rate from the final plan.
	// Without grants both reduce exactly to the primary values.
	r.detourRate = 0
	if len(r.grantRecs) == 0 {
		for _, c := range r.liveClasses {
			r.classHopsExp[c] = r.classes[c].hops
		}
		return classRate
	}
	primaryLoad := r.primaryLoad
	for a := 0; a < r.nArcs; a++ {
		r.detourRate += r.grantsFor[a]
	}
	for _, c := range r.liveClasses {
		cl := &r.classes[c]
		extra := 0.0
		for _, a := range cl.arcs {
			if r.grantsFor[a] <= 0 || primaryLoad[a] <= 0 {
				continue
			}
			phi := r.grantsFor[a] / primaryLoad[a]
			if phi > 1 {
				phi = 1
			}
			extra += phi * (r.extraWeighted[a] / r.grantsFor[a])
		}
		r.classHopsExp[c] = cl.hops + extra
	}
	return classRate
}

// resetGrants clears the detour plan. Every grant adds a record, so an
// empty record list means the per-arc grant arrays are already zero.
func (r *runner) resetGrants() {
	if len(r.grantRecs) == 0 {
		return
	}
	zero(r.grantsFor)
	zero(r.detourLoad)
	zero(r.extraWeighted)
	r.grantRecs = r.grantRecs[:0]
}

// poolFill runs one pooling round's max-min fill and per-arc primary
// load. The effective capacity for primary filling is the arc's own rate
// plus whatever overflow it may ship over detours; donor arcs keep their
// full rate for primary traffic — pooling uses spare capacity only (§3.3:
// forward toward the detour "exactly as much traffic as this detour path
// can accommodate"). With no grant capBase+0 is capBase exactly, so the
// fill reads capBase directly.
func (r *runner) poolFill() []float64 {
	r.mPoolRounds.Inc()
	capacity := r.capBase
	if len(r.grantRecs) > 0 {
		// classFill reads capacities on live arcs only.
		for _, a := range r.liveArcs {
			r.capEff[a] = r.capBase[a] + r.grantsFor[a]
		}
		capacity = r.capEff
	}
	classRate := r.classFill(capacity)

	// Per-arc primary load. Accumulated flow-by-flow in admission order —
	// not class×weight products — so the float summation order matches
	// the per-flow reference bit for bit. Only live arcs can carry load;
	// every other arc already reads zero (addArcWeight).
	primaryLoad := r.primaryLoad
	for _, a := range r.liveArcs {
		primaryLoad[a] = 0
	}
	for _, s := range r.activeOrder {
		c := r.slotClass[s]
		cr := classRate[c]
		for _, a := range r.classes[c].arcs {
			primaryLoad[a] += cr
		}
	}
	return classRate
}

// buildScanArcs sets the arcs a round's candidate scan and the no-grant
// feasibility scan must visit: the arcs carrying live classes (liveArcs)
// and, ascending and without duplicates, the static list of arcs that
// count as saturated even when idle. Every other arc has
// zero primary load and positive slack, so it can be neither a candidate
// nor overloaded while no detour traffic lands on it. The loaded set is
// fixed for one allocation, so this runs once per allocateINRP call.
func (r *runner) buildScanArcs() {
	scan := append(r.scanArcs[:0], r.liveArcs...)
	if len(r.lowCapArcs) > 0 {
		scan = append(scan, r.lowCapArcs...)
		slices.Sort(scan)
		scan = slices.Compact(scan)
	}
	r.scanArcs = scan
}

// planRound re-plans every saturated arc's detours from scratch against
// the round's loads. Actually-overloaded arcs are served first; merely
// saturated arcs get optimistic grants (in non-final rounds) so their
// frozen flows can grow into pooled capacity next round. The final round
// plans only real overflow, keeping the metrics honest. Candidates come
// from scanArcs in any order: congestedList's order is total.
func (r *runner) planRound(final bool) {
	primaryLoad := r.primaryLoad
	cands := r.cands[:0]
	for _, a := range r.scanArcs {
		over := primaryLoad[a] - r.capBase[a]
		saturated := r.capBase[a]-primaryLoad[a] <= r.epsBase[a]
		if over > r.epsBase[a] || (!final && saturated) {
			cands = append(cands, congested{arc: int(a), over: over})
		}
	}
	r.cands = cands
	sort.Sort(&r.cands)

	r.resetGrants()
	for _, c := range r.cands {
		req := primaryLoad[c.arc] + r.detourLoad[c.arc] - r.capBase[c.arc]
		if !final {
			// Optimistic: take whatever the detours can spare; the
			// planner caps the request by donor residuals.
			req = optimisticOverflow
		}
		if req <= 0 {
			continue
		}
		a := c.arc
		grants, _ := r.planner.Plan(r.arcBack[a], bitRate(req), r.residualFn)
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

// sameGrants reports whether the round just planned handed out exactly
// the grants it started from (hadGrants: its input had records, saved in
// prevGrants), compared bit for bit. It answers false whenever only one
// side has records, even if every rate is zero; that costs a round at
// most.
func (r *runner) sameGrants(hadGrants bool) bool {
	if !hadGrants || len(r.grantRecs) == 0 {
		return !hadGrants && len(r.grantRecs) == 0
	}
	for a, g := range r.grantsFor {
		if math.Float64bits(g) != math.Float64bits(r.prevGrants[a]) {
			return false
		}
	}
	return true
}

// enforceFeasibility rate-caps classes on arcs whose overflow could not
// be fully detoured — the fluid expression of the back-pressure phase.
// Decisions (worst arc, cut factor, per-class cuts) iterate classes; only
// the primary-load bookkeeping walks flows, in active order, to keep the
// float summation sequence identical to the per-flow reference.
//
// The worst-arc scan visits arcs in ascending order, so the first of
// equal excesses wins. With grants it walks every arc; without, only
// scanArcs can be overloaded (cuts only lower loads on class arcs).
func (r *runner) enforceFeasibility(classRate, primaryLoad []float64) {
	scan := r.allArcs
	if len(r.grantRecs) == 0 {
		scan = r.scanArcs
	}
	for pass := 0; pass < r.nArcs; pass++ {
		worst, worstExcess := -1, 0.0
		for _, a32 := range scan {
			a := int(a32)
			direct := primaryLoad[a] - r.grantsFor[a]
			excess := direct + r.detourLoad[a] - r.capBase[a]
			if excess > r.epsBase[a]+1e-9 && excess > worstExcess {
				worst, worstExcess = a, excess
			}
		}
		if worst < 0 {
			return
		}
		r.res.Backpressured++
		r.mBackpressure.Inc()
		if primaryLoad[worst] <= 0 {
			// Excess comes entirely from landed detours: donors were
			// over-granted. Shrink the grants landing on this arc
			// proportionally and re-evaluate.
			if !r.shrinkGrants(worst, worstExcess) {
				return
			}
			continue
		}
		factor := 1 - worstExcess/primaryLoad[worst]
		if factor < 0 {
			factor = 0
		}
		for _, c := range r.liveClasses {
			cl := &r.classes[c]
			r.classCut[c] = 0
			if classRate[c] == 0 {
				continue
			}
			if !pathHasArc(cl.arcs, int32(worst)) {
				continue
			}
			cut := classRate[c] * (1 - factor)
			classRate[c] -= cut
			r.classCut[c] = cut
		}
		for _, s := range r.activeOrder {
			c := r.slotClass[s]
			cut := r.classCut[c]
			if cut == 0 {
				continue
			}
			for _, a := range r.classes[c].arcs {
				primaryLoad[a] -= cut
			}
		}
	}
}

// shrinkGrants scales down the detour grants landing on an arc that is
// overloaded by detour traffic alone, restoring the promised proportional
// shrink: each landing grant loses the same fraction, and its source
// arc's pooled capacity (and stretch weight) shrinks with it — which the
// next feasibility pass then sees as primary overload on the source, if
// any. It reports whether any grant was shrunk.
func (r *runner) shrinkGrants(worst int, excess float64) bool {
	landed := r.detourLoad[worst]
	if landed <= 0 {
		return false
	}
	factor := 1 - excess/landed
	if factor < 0 {
		factor = 0
	}
	shrunk := false
	for gi := range r.grantRecs {
		g := &r.grantRecs[gi]
		if g.rate <= 0 {
			continue
		}
		lands := false
		for _, b := range g.arcs {
			if int(arcIndex(b)) == worst {
				lands = true
				break
			}
		}
		if !lands {
			continue
		}
		cut := g.rate * (1 - factor)
		if cut <= 0 {
			continue
		}
		g.rate -= cut
		r.grantsFor[g.src] -= cut
		r.extraWeighted[g.src] -= cut * g.extra
		for _, b := range g.arcs {
			r.detourLoad[arcIndex(b)] -= cut
		}
		shrunk = true
	}
	return shrunk
}

// pathHasArc reports whether the arc list contains the arc index.
func pathHasArc(arcs []int32, a int32) bool {
	for _, b := range arcs {
		if b == a {
			return true
		}
	}
	return false
}

// growFloats resizes a reusable float scratch buffer to n entries,
// reallocating only on growth. Contents are unspecified; callers
// overwrite every entry.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, n+n/2+16)
	}
	*buf = (*buf)[:n]
	return *buf
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}
