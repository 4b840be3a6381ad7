package flowsim

import "math"

// progressiveFill computes the max-min fair allocation of flows over
// capacitated arcs by progressive filling: all unfrozen flows grow at the
// same rate; when an arc saturates, the flows crossing it freeze at the
// current level and the rest keep growing. A non-nil caps slice bounds
// each flow's demand (caps[f] ≤ 0 means elastic): a flow whose cap is
// reached freezes there, releasing its unused share.
//
// paths[f] lists the arc indexes of flow f; capacity[a] is the arc's
// capacity (bits/s). The returned rates are bits/s, aligned with paths.
func progressiveFill(paths [][]int32, capacity []float64, caps []float64) []float64 {
	nFlows := len(paths)
	rates := make([]float64, nFlows)
	if nFlows == 0 {
		return rates
	}
	nArcs := len(capacity)
	load := make([]float64, nArcs)
	count := make([]int, nArcs)
	arcFlows := make([][]int32, nArcs)
	for f, p := range paths {
		for _, a := range p {
			count[a]++
			arcFlows[a] = append(arcFlows[a], int32(f))
		}
	}

	frozen := make([]bool, nFlows)
	remaining := nFlows
	level := 0.0

	freeze := func(f int32, at float64) bool {
		if frozen[f] {
			return false
		}
		frozen[f] = true
		rates[f] = at
		remaining--
		for _, b := range paths[f] {
			count[b]--
		}
		return true
	}

	for remaining > 0 {
		// Next event level: an arc saturating or a demand cap binding.
		delta := math.Inf(1)
		for a := 0; a < nArcs; a++ {
			if count[a] == 0 {
				continue
			}
			slack := (capacity[a] - load[a]) / float64(count[a])
			if slack < delta {
				delta = slack
			}
		}
		if caps != nil {
			for f := 0; f < nFlows; f++ {
				if frozen[f] || caps[f] <= 0 {
					continue
				}
				if room := caps[f] - level; room < delta {
					delta = room
				}
			}
		}
		if math.IsInf(delta, 1) {
			// No constraining arc or cap left (flows with empty paths):
			// they are unconstrained; leave them at the current level.
			break
		}
		if delta < 0 {
			delta = 0
		}
		level += delta
		for a := 0; a < nArcs; a++ {
			if count[a] > 0 {
				load[a] += delta * float64(count[a])
			}
		}
		progressed := false
		// Freeze flows whose demand cap is met.
		if caps != nil {
			for f := 0; f < nFlows; f++ {
				if !frozen[f] && caps[f] > 0 && caps[f]-level <= saturationEps(caps[f]) {
					progressed = freeze(int32(f), caps[f]) || progressed
				}
			}
		}
		// Freeze flows on arcs that have reached capacity.
		for a := 0; a < nArcs; a++ {
			if count[a] == 0 {
				continue
			}
			if capacity[a]-load[a] > saturationEps(capacity[a]) {
				continue
			}
			for _, f := range arcFlows[a] {
				progressed = freeze(f, level) || progressed
			}
		}
		if !progressed {
			// Numerical stalemate: freeze everything at the current level.
			for f := range frozen {
				if !frozen[f] {
					frozen[f] = true
					rates[f] = level
					remaining--
				}
			}
		}
	}
	return rates
}
