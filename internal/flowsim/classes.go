package flowsim

import (
	"math"
	"slices"
)

// Flow classes collapse the allocator's working set from flows to
// distinct constraint sets. Max-min fair allocation depends only on a
// flow's constraints — the arcs it crosses and its demand cap — so flows
// sharing both are interchangeable: progressive filling grows them in
// lockstep and freezes them at the same instant, hence they provably
// receive bit-identical rates. Bucketing the active population into
// classes keyed by (arc list, demand cap) turns every O(flows) loop in
// the allocator into an O(classes) loop; on ISP topologies with gravity
// workloads thousands of concurrent flows collapse into a few hundred
// classes (bounded by the distinct (src, dst) pairs, not the load).
//
// Class membership is maintained incrementally: admit() increments the
// flow's class weight (creating the class on first sight of the path),
// finish() decrements it. Classes are never deleted — indices stay
// stable, empty classes cost one skipped iteration — and all per-class
// scratch lives on the runner, reused across allocate() calls, so the
// steady-state allocator performs no heap allocation at all.
//
// The per-arc side is incremental too. arcWeight[a] is the sum of the
// live class weights over the classes crossing arc a, and liveArcs lists,
// ascending, exactly the arcs with arcWeight > 0; admit and finishSlot
// update both on the class's own arcs (addArcWeight). A fill seeds its
// working weights, loads and tolerances from liveArcs alone, so one
// allocation costs O(loaded arcs + live classes), whatever the size of
// the topology. Arcs outside liveArcs also read zero in primaryLoad.

// flowClass is one bucket of active flows sharing a primary path and
// demand cap.
type flowClass struct {
	arcs   []int32 // arc indexes of the shared primary path
	cap    float64 // per-flow demand cap (0 = elastic); uniform per run
	hops   float64 // primary hop count
	weight int     // active member flows

	// members is a binary min-heap of the class's live flow slots keyed
	// by remaining bits (heap.go). Every member drains by the same
	// per-class delta each epoch — a monotone map on remaining — so the
	// heap order is invariant under advancement and only admit (push)
	// and finish (pop) touch it. The front member is the class's next
	// finisher, giving the event loop the projected class completion in
	// O(1).
	members []int32
}

// classKey renders a path's arc indexes into the registry key bytes.
// The demand cap is uniform per run (Config.DemandCap), so the path
// alone identifies the (arc list, cap) class. The scratch buffer is
// reused; map lookups with string(key) do not allocate.
func (r *runner) classKey(arcs []int32) []byte {
	b := r.keyScratch[:0]
	for _, a := range arcs {
		b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	r.keyScratch = b
	return b
}

// classFor returns the class index for a path, creating the class on
// first sight. arcs may be caller scratch: the class stores its own
// copy, so admission allocates only when a new class appears.
func (r *runner) classFor(arcs []int32, hops float64) int32 {
	key := r.classKey(arcs)
	if idx, ok := r.classOf[string(key)]; ok {
		return idx
	}
	idx := int32(len(r.classes))
	capLimit := 0.0
	if r.cfg.DemandCap > 0 {
		capLimit = float64(r.cfg.DemandCap)
	}
	owned := append([]int32(nil), arcs...)
	r.classes = append(r.classes, flowClass{arcs: owned, cap: capLimit, hops: hops})
	r.classOf[string(key)] = idx
	for _, a := range owned {
		r.arcClasses[a] = append(r.arcClasses[a], idx)
	}
	r.growClassScratch()
	return idx
}

// addArcWeight adds d (+1 on admit, −1 on finish) to arcWeight on every
// arc of the class and keeps liveArcs in step: an arc whose weight turns
// positive is inserted in order, one whose weight returns to zero is
// deleted, and its primaryLoad is zeroed, since a round's loads are
// rewritten only on live arcs (poolFill) but read on any donor arc.
func (r *runner) addArcWeight(cl *flowClass, d int) {
	for _, a := range cl.arcs {
		old := r.arcWeight[a]
		r.arcWeight[a] = old + d
		switch {
		case old == 0:
			i, _ := slices.BinarySearch(r.liveArcs, a)
			r.liveArcs = slices.Insert(r.liveArcs, i, a)
		case old+d == 0:
			i, _ := slices.BinarySearch(r.liveArcs, a)
			r.liveArcs = slices.Delete(r.liveArcs, i, i+1)
			r.primaryLoad[a] = 0
		}
	}
}

// growClassScratch resizes the class-indexed scratch buffers to the
// current class count.
func (r *runner) growClassScratch() {
	n := len(r.classes)
	for len(r.classRate) < n {
		r.classRate = append(r.classRate, 0)
		r.classFrozen = append(r.classFrozen, false)
		r.classCut = append(r.classCut, 0)
		r.classHopsExp = append(r.classHopsExp, 0)
		r.classGen = append(r.classGen, 0)
		r.prevClassRate = append(r.prevClassRate, 0)
		r.classDirty = append(r.classDirty, false)
		r.classMoved = append(r.classMoved, 0)
		r.classMovedHop = append(r.classMovedHop, 0)
		r.classPos = append(r.classPos, -1)
	}
}

// classFill computes the max-min fair per-flow rate of every class by
// weighted progressive filling over capacity: all unfrozen classes grow
// at the same per-flow rate, an arc carrying total weight w drains
// capacity at w× that rate, and a saturating arc (or a binding demand
// cap) freezes the classes it constrains. It mirrors progressiveFill —
// the retained per-flow test reference in maxmin_test.go — operation for
// operation: per-arc weights are integer sums (exact in float64), loads
// advance by the identical delta×weight products, and the freeze
// thresholds are the same saturationEps comparisons, so the
// resulting rates are bit-identical to filling the member flows
// individually (property-tested in equivalence_test.go).
//
// The returned slice is runner-owned scratch, valid until the next call.
func (r *runner) classFill(capacity []float64) []float64 {
	rates := r.classRate
	frozen := r.classFrozen
	load := r.fillLoad
	weight := r.fillWeight
	// Demand caps are uniform per run (Config.DemandCap applies to every
	// flow), so the cap-event computation is O(1): while any unfrozen
	// class remains, the binding cap distance is capLimit−level for all of
	// them — the same value the per-flow reference takes the min over.
	capLimit := float64(r.cfg.DemandCap)
	capped := capLimit > 0

	// Only live classes participate; dead classes hold frozen=true and
	// rate=0 permanently (the finishSlot invariant), so the freeze sweeps
	// below may reach them through arcClasses without effect. The live
	// list's order is arbitrary, which is sound here: per-arc weights are
	// integer sums and freezes are per-class, so no float chain depends
	// on class enumeration order.
	remaining := len(r.liveClasses)
	for _, c := range r.liveClasses {
		rates[c] = 0
		frozen[c] = false
	}

	// Active-arc index: only arcs carrying unfrozen weight participate in
	// the event loops, in ascending order (matching the reference's full
	// 0..nArcs scans, which skip zero-count arcs). It starts as liveArcs,
	// whose weights arcWeight already holds; no other arc is read or
	// written below. Arcs only ever leave the set during a fill; the list
	// compacts in place, preserving order. The saturation slack depends
	// only on the fill's capacities, so it is computed once per arc here
	// instead of once per event.
	active := append(r.activeArcs[:0], r.liveArcs...)
	satSlack := r.satSlack
	for _, a := range active {
		load[a] = 0
		weight[a] = r.arcWeight[a]
		satSlack[a] = saturationEps(capacity[a])
	}

	level := 0.0

	freeze := func(c int32, at float64) bool {
		if frozen[c] {
			return false
		}
		frozen[c] = true
		rates[c] = at
		remaining--
		cl := &r.classes[c]
		for _, b := range cl.arcs {
			weight[b] -= cl.weight
		}
		return true
	}

	for remaining > 0 {
		// Next event level: an arc saturating or a demand cap binding.
		// This pass also drops arcs whose weight reached zero.
		delta := math.Inf(1)
		kept := active[:0]
		for _, a := range active {
			w := weight[a]
			if w == 0 {
				continue
			}
			kept = append(kept, a)
			slack := (capacity[a] - load[a]) / float64(w)
			if slack < delta {
				delta = slack
			}
		}
		active = kept
		if capped {
			if room := capLimit - level; room < delta {
				delta = room
			}
		}
		if math.IsInf(delta, 1) {
			// No constraining arc or cap left (classes with empty paths):
			// they are unconstrained; leave them at the current level.
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		// Advance loads and collect the arcs that saturate at this level
		// (ascending, like the reference's scan). Loads advance with the
		// event-start weights: freezing only begins after this pass.
		saturated := r.satArcs[:0]
		for _, a := range active {
			l := load[a] + delta*float64(weight[a])
			load[a] = l
			if capacity[a]-l <= satSlack[a] {
				saturated = append(saturated, a)
			}
		}
		r.satArcs = saturated
		progressed := false
		// Freeze classes whose demand cap is met — with a uniform cap the
		// threshold check happens once, the freeze sweep only on the (at
		// most one) event where the cap binds.
		if capped && capLimit-level <= saturationEps(capLimit) {
			for _, c := range r.liveClasses {
				if !frozen[c] {
					progressed = freeze(c, capLimit) || progressed
				}
			}
		}
		// Freeze classes on arcs that have reached capacity.
		for _, a := range saturated {
			if weight[a] == 0 {
				// Every crossing class froze at this level already (e.g.
				// via the cap); freezing again would be a no-op.
				continue
			}
			for _, c := range r.arcClasses[a] {
				progressed = freeze(c, level) || progressed
			}
		}
		if !progressed {
			// Numerical stalemate: freeze everything at the current level.
			for _, c := range r.liveClasses {
				if !frozen[c] {
					frozen[c] = true
					rates[c] = level
					remaining--
				}
			}
		}
	}
	r.activeArcs = active[:0]
	return rates
}

// saturationEps is the absolute slack below which an arc counts as
// saturated — or a demand cap as reached — scaled to the capacity (or
// cap) to stay robust across Mbps and Tbps.
func saturationEps(capacity float64) float64 {
	eps := capacity * 1e-9
	if eps < 1e-6 {
		eps = 1e-6
	}
	return eps
}
