package core

import (
	"testing"
	"time"

	"repro/internal/units"
)

func TestPhaseString(t *testing.T) {
	if PhasePushData.String() != "push-data" ||
		PhaseDetour.String() != "detour" ||
		PhaseBackPressure.String() != "back-pressure" {
		t.Error("phase names wrong")
	}
	if Phase(9).String() != "Phase(9)" {
		t.Error("unknown phase should be explicit")
	}
}

func TestInterfaceTransitions(t *testing.T) {
	iface := NewInterface(10 * units.Mbps)
	if iface.Phase() != PhasePushData {
		t.Fatal("initial phase should be push-data")
	}
	// Under capacity: stays push-data.
	if got := iface.Update(8*units.Mbps, true); got != PhasePushData {
		t.Errorf("under capacity: %v", got)
	}
	// Demand reaches supply with a detour available: detour phase.
	if got := iface.Update(11*units.Mbps, true); got != PhaseDetour {
		t.Errorf("over capacity with detour: %v", got)
	}
	// Still congested, detour gone: back-pressure.
	if got := iface.Update(11*units.Mbps, false); got != PhaseBackPressure {
		t.Errorf("over capacity without detour: %v", got)
	}
	// Demand subsides: push-data again.
	if got := iface.Update(5*units.Mbps, false); got != PhasePushData {
		t.Errorf("subsided: %v", got)
	}
	if iface.Transitions() != 3 {
		t.Errorf("transitions = %d, want 3", iface.Transitions())
	}
}

func TestInterfaceHysteresis(t *testing.T) {
	iface := NewInterface(10 * units.Mbps)
	iface.Update(10.5*units.Mbps, true) // enter detour
	// 9.7 is below theta (10) but above theta-hysteresis (9.5): must stay
	// congested to avoid flapping.
	if got := iface.Update(9.7*units.Mbps, true); got != PhaseDetour {
		t.Errorf("within hysteresis band: %v, want detour", got)
	}
	if got := iface.Update(9.4*units.Mbps, true); got != PhasePushData {
		t.Errorf("below hysteresis band: %v, want push-data", got)
	}
}

// TestUpdateIgnoresDetourWhenUncongested pins what lets a caller skip
// the detour search: whenever Congested is false, Update returns the same
// phase and counts the same transitions with or without a detour. Both
// hysteresis branches are covered, from push-data (enter threshold) and
// from detour and back-pressure (leave threshold).
func TestUpdateIgnoresDetourWhenUncongested(t *testing.T) {
	const rate = 10 * units.Mbps
	starts := []struct {
		name  string
		enter func(*Interface)
	}{
		{"push-data", func(*Interface) {}},
		{"detour", func(i *Interface) { i.Update(2*rate, true) }},
		{"back-pressure", func(i *Interface) { i.Update(2*rate, false) }},
	}
	for _, st := range starts {
		for r := units.BitRate(0); r <= 1.2*rate; r += rate / 200 {
			probe := NewInterface(rate)
			st.enter(probe)
			if probe.Congested(r) {
				continue
			}
			with, without := NewInterface(rate), NewInterface(rate)
			st.enter(with)
			st.enter(without)
			pw, pwo := with.Update(r, true), without.Update(r, false)
			if pw != pwo || with.Transitions() != without.Transitions() {
				t.Errorf("from %s at %v: Update(true) = %v/%d, Update(false) = %v/%d",
					st.name, r, pw, with.Transitions(), pwo, without.Transitions())
			}
		}
	}
	// The sweep covers both sides of each branch's threshold.
	fromPush, fromDetour := NewInterface(rate), NewInterface(rate)
	fromDetour.Update(2*rate, true)
	if fromPush.Congested(0.97*rate) || !fromDetour.Congested(0.97*rate) {
		t.Error("0.97·rate should be uncongested from push-data, congested from detour")
	}
}

func TestInterfaceOverflow(t *testing.T) {
	iface := NewInterface(10 * units.Mbps)
	if got := iface.Overflow(13 * units.Mbps); got != 3*units.Mbps {
		t.Errorf("overflow = %v, want 3Mbps", got)
	}
	if got := iface.Overflow(7 * units.Mbps); got != 0 {
		t.Errorf("overflow under capacity = %v, want 0", got)
	}
}

func TestEstimatorEq1(t *testing.T) {
	// Router with 3 interfaces: requests split 3:1 between data returning
	// via ifaces 1 and 2.
	chunk := units.ByteSize(1000) // 8000 bits
	e := NewEstimator(3, chunk, time.Second)
	e.RecordRequest(1, 3)
	e.RecordRequest(2, 1)

	e.Tick(time.Second)
	// 3 chunks × 8000 bits over 1s = 24 kbps anticipated on iface 1.
	if got := e.AnticipatedRate(1); got != 24*units.Kbps {
		t.Errorf("r_a(1) = %v, want 24Kbps", got)
	}
	if got := e.AnticipatedRate(2); got != 8*units.Kbps {
		t.Errorf("r_a(2) = %v, want 8Kbps", got)
	}
	if got := e.AnticipatedRate(0); got != 0 {
		t.Errorf("r_a(0) = %v, want 0", got)
	}
	// Counts reset after Tick: an interval without requests reads 0.
	e.Tick(2 * time.Second)
	if got := e.AnticipatedRate(1); got != 0 {
		t.Errorf("r_a(1) after an empty interval = %v, want 0", got)
	}
}

func TestEstimatorMultipleIngress(t *testing.T) {
	// Data for iface 2 requested through two different ingress
	// interfaces must sum (the central management entity of §3.3).
	e := NewEstimator(3, 1000, time.Second)
	e.RecordRequest(2, 2)
	e.RecordRequest(2, 3)
	e.Tick(time.Second)
	if got := e.AnticipatedRate(2); got != 40*units.Kbps {
		t.Errorf("r_a(2) = %v, want 40Kbps", got)
	}
}

func TestEstimatorElapsedWindow(t *testing.T) {
	e := NewEstimator(2, 1000, time.Second)
	e.RecordRequest(1, 10)
	e.Tick(2 * time.Second) // window actually lasted 2s
	if got := e.AnticipatedRate(1); got != 40*units.Kbps {
		t.Errorf("r_a over 2s window = %v, want 40Kbps", got)
	}
	e.SetInterval(500 * time.Millisecond)
	if e.Interval() != 500*time.Millisecond {
		t.Error("SetInterval failed")
	}
	e.SetInterval(-1) // ignored
	if e.Interval() != 500*time.Millisecond {
		t.Error("negative interval should be ignored")
	}
}
