// Package core implements the paper's primary contribution: the In-Network
// Resource Pooling Principle (INRPP).
//
// INRPP replaces TCP's end-to-end closed control loop with three local,
// per-interface mechanisms (§3 of the paper):
//
//   - push-data: senders push requested and anticipated chunks open-loop,
//     multiplexing flows in processor-sharing fashion; every interface
//     estimates its expected incoming traffic (the anticipated rate of
//     eq. 1) from the requests it has forwarded upstream;
//   - detour: when the anticipated rate reaches the link rate, the excess
//     is split off and sent over alternative sub-paths around the
//     bottleneck (1-hop detours first; detour nodes may add one more hop);
//   - back-pressure: when no detour exists, the router takes custody of
//     the excess in its cache and explicitly slows its upstream neighbour;
//     the notification propagates toward the sender, which falls back to a
//     closed loop (1-to-1 flow balance).
//
// The package is pure protocol logic with no event loop of its own: it
// holds the interface phases, the eq. 1 estimator, the detour planner and
// the request window, which the flow-level simulator (internal/flowsim)
// and the chunk-level simulator (internal/chunknet) both build on.
// Push-data processor sharing runs in flowsim's class allocator and in
// chunknet's round-robin sender; back-pressure and custody run in
// chunknet.
package core

import (
	"fmt"

	"repro/internal/units"
)

// Phase is the operating mode of a router interface (§3.3).
type Phase int

// The three INRPP phases.
const (
	PhasePushData Phase = iota
	PhaseDetour
	PhaseBackPressure
)

// String names the phase as in the paper.
func (p Phase) String() string {
	switch p {
	case PhasePushData:
		return "push-data"
	case PhaseDetour:
		return "detour"
	case PhaseBackPressure:
		return "back-pressure"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// The per-interface phase thresholds.
const (
	// theta is the utilisation fraction of the link rate at which demand
	// is considered to have reached supply (the paper's r_a ≳ r_i test).
	theta = 1.0
	// hysteresis widens the return path: the interface re-enters
	// push-data only once the anticipated rate falls below
	// (theta-hysteresis)·rate, avoiding phase flapping around the
	// threshold.
	hysteresis = 0.05
)

// Interface is the INRPP state machine for one outgoing router interface.
// Feed it anticipated-rate observations (from an Estimator) and detour
// availability; it answers which phase the interface operates in.
type Interface struct {
	rate  units.BitRate
	phase Phase

	transitions int
}

// NewInterface returns an interface state machine for a link of the given
// per-direction rate.
func NewInterface(rate units.BitRate) *Interface {
	return &Interface{rate: rate, phase: PhasePushData}
}

// Phase returns the current phase.
func (i *Interface) Phase() Phase { return i.phase }

// Rate returns the interface's configured link rate.
func (i *Interface) Rate() units.BitRate { return i.rate }

// Transitions returns how many phase changes have occurred, a measure of
// stability (the paper's "avoid extensive link swapping").
func (i *Interface) Transitions() int { return i.transitions }

// Congested reports whether demand has reached supply under theta, with
// hysteresis applied relative to the current phase. It is the only case
// in which Update reads detour availability, so a caller may skip the
// detour search whenever it is false.
func (i *Interface) Congested(anticipated units.BitRate) bool {
	enter := units.BitRate(theta) * i.rate
	if i.phase == PhasePushData {
		return anticipated >= enter
	}
	// Already in a congested phase: require the rate to fall clearly below
	// the threshold before declaring the congestion over.
	leave := units.BitRate(theta-hysteresis) * i.rate
	return anticipated >= leave
}

// Update advances the state machine given the latest anticipated rate for
// this interface and whether any detour path with spare capacity exists,
// returning the (possibly new) phase. detourAvailable is read only when
// the interface is Congested:
//
//	r_a < r           → push-data
//	r_a ≥ r, detour   → detour
//	r_a ≥ r, no detour → back-pressure
func (i *Interface) Update(anticipated units.BitRate, detourAvailable bool) Phase {
	var next Phase
	switch {
	case !i.Congested(anticipated):
		next = PhasePushData
	case detourAvailable:
		next = PhaseDetour
	default:
		next = PhaseBackPressure
	}
	if next != i.phase {
		i.transitions++
		i.phase = next
	}
	return i.phase
}

// Overflow returns how much of the anticipated rate exceeds what the link
// itself can carry — the traffic that must be detoured or, failing that,
// cached and back-pressured.
func (i *Interface) Overflow(anticipated units.BitRate) units.BitRate {
	over := anticipated - i.rate
	if over < 0 {
		return 0
	}
	return over
}
