package flowsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// The event loop's edge branches — the all-rates-zero stall break, the
// jump-to-next-arrival when a completion time rounds onto the current
// event, the horizon partial-delivery accounting, and the arrival-slack
// admission at an exact event time — each pinned directly and checked
// heap-vs-scan via runPair.

// TestRunStallBreaksWithoutArrivals: with every capacity zero the single
// flow's class rate is zero forever; no completion can be projected and
// no arrival remains, so the loop must break immediately with nothing
// delivered.
func TestRunStallBreaksWithoutArrivals(t *testing.T) {
	g := topo.Line(3)
	g.SetAllCapacities(0)
	cfg := Config{
		Graph:  g,
		Policy: SP,
		Flows:  []workload.Flow{{ID: 1, Src: 0, Dst: 2, Size: units.MB}},
	}
	res, scan := runPair(t, cfg)
	checkRunEqual(t, 0, res, scan)
	if res.Total != 1 || res.Completed != 0 {
		t.Fatalf("Total=%d Completed=%d, want 1/0", res.Total, res.Completed)
	}
	if res.Delivered != 0 {
		t.Fatalf("Delivered=%v, want 0", res.Delivered)
	}
	if res.Duration != 0 {
		t.Fatalf("Duration=%v, want 0 (stall must break, not spin)", res.Duration)
	}
}

// TestRunZeroRateJumpsToNextArrival: a 1-byte flow on a 1 Pbps line
// finishes in 8 femtoseconds — at t=5000 s that completion time rounds
// to the current event time in float64, so the loop cannot advance on it
// and must jump to the next arrival instead, clamping the flow's drain
// there.
func TestRunZeroRateJumpsToNextArrival(t *testing.T) {
	g := topo.Line(3)
	g.SetAllCapacities(units.BitRate(1e15))
	cfg := Config{
		Graph:  g,
		Policy: SP,
		Flows: []workload.Flow{
			{ID: 1, Src: 0, Dst: 2, Size: units.Byte, Arrival: 5000 * time.Second},
			{ID: 2, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 6000 * time.Second},
		},
	}
	res, scan := runPair(t, cfg)
	checkRunEqual(t, 0, res, scan)
	if res.Completed != 2 {
		t.Fatalf("Completed=%d, want 2", res.Completed)
	}
	// The tiny flow only finishes at the next arrival, 1000 s after it
	// arrived; the big flow drains in ~1 µs.
	if got := res.FCTSeconds.Max(); got != 1000 {
		t.Fatalf("FCT max=%v, want 1000 (completion deferred to next arrival)", got)
	}
}

// TestRunHorizonPartialDelivery: a 10 s flow cut at 500 ms must account
// exactly the bytes moved by the horizon without counting a completion.
func TestRunHorizonPartialDelivery(t *testing.T) {
	g := topo.Line(3) // 10 Gbps per direction
	cfg := Config{
		Graph:   g,
		Policy:  SP,
		Flows:   []workload.Flow{{ID: 1, Src: 0, Dst: 2, Size: 1250 * units.MB}},
		Horizon: 500 * time.Millisecond,
	}
	res, scan := runPair(t, cfg)
	checkRunEqual(t, 0, res, scan)
	if res.Completed != 0 || res.Total != 1 {
		t.Fatalf("Completed=%d Total=%d, want 0/1", res.Completed, res.Total)
	}
	// 10 Gbps × 0.5 s = 5e9 bits = 625 MB of the offered 1250 MB.
	if want := 625 * units.MB; res.Delivered != want {
		t.Fatalf("Delivered=%v, want %v", res.Delivered, want)
	}
	if res.GoodputRatio != 0.5 {
		t.Fatalf("GoodputRatio=%v, want 0.5", res.GoodputRatio)
	}
	if res.Duration != 500*time.Millisecond {
		t.Fatalf("Duration=%v, want 500ms", res.Duration)
	}
}

// TestArrivalExactlyAtEventTime is the regression test for the admission
// slack: a flow arriving exactly at a completion event's time must be
// admitted at that event (both the pre-loop batch and the per-event
// sweep use the same arrivalSlack tolerance), not one event later.
func TestArrivalExactlyAtEventTime(t *testing.T) {
	g := topo.Line(3) // 10 Gbps: 125 MB drains in exactly 0.1 s
	cfg := Config{
		Graph:  g,
		Policy: SP,
		Flows: []workload.Flow{
			{ID: 1, Src: 0, Dst: 2, Size: 125 * units.MB},
			{ID: 2, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 100 * time.Millisecond},
		},
	}
	res, scan := runPair(t, cfg)
	checkRunEqual(t, 0, res, scan)
	if res.Completed != 2 {
		t.Fatalf("Completed=%d, want 2", res.Completed)
	}
	// Flow 2 is admitted at the t=0.1 completion event and gets the full
	// line to itself: both flows see an FCT of exactly 0.1 s.
	if min, max := res.FCTSeconds.Min(), res.FCTSeconds.Max(); min != 0.1 || max != 0.1 {
		t.Fatalf("FCT min=%v max=%v, want 0.1/0.1", min, max)
	}
	if res.Duration != 200*time.Millisecond {
		t.Fatalf("Duration=%v, want 200ms", res.Duration)
	}
}

// TestRunRejectsMalformedFlows: a flow the event loop cannot run fails
// Run with an error naming the flow, instead of a panic (an endpoint
// outside the graph), a flow that never completes (a self-loop or no
// bytes), or an admission later than its arrival (a negative arrival or
// unsorted arrivals).
func TestRunRejectsMalformedFlows(t *testing.T) {
	ok := workload.Flow{ID: 1, Src: 0, Dst: 4, Size: units.MB, Arrival: time.Second}
	for _, tc := range []struct {
		name string
		bad  workload.Flow
		want string
	}{
		{"endpoint outside graph", workload.Flow{ID: 7, Src: 0, Dst: 99, Size: units.MB, Arrival: time.Second}, "outside the 5-node graph"},
		{"negative endpoint", workload.Flow{ID: 7, Src: -1, Dst: 4, Size: units.MB, Arrival: time.Second}, "outside the 5-node graph"},
		{"src equals dst", workload.Flow{ID: 7, Src: 2, Dst: 2, Size: units.MB, Arrival: time.Second}, "both node 2"},
		{"zero size", workload.Flow{ID: 7, Src: 0, Dst: 4, Arrival: time.Second}, "size 0 bytes"},
		{"negative size", workload.Flow{ID: 7, Src: 0, Dst: 4, Size: -units.MB, Arrival: time.Second}, "size -1000000 bytes"},
		{"negative arrival", workload.Flow{ID: 7, Src: 0, Dst: 4, Size: units.MB, Arrival: -time.Second}, "before the run starts"},
		{"arrival out of order", workload.Flow{ID: 7, Src: 0, Dst: 4, Size: units.MB, Arrival: 500 * time.Millisecond}, "before flow 1's"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: topo.Fig3(), Policy: INRP, Flows: []workload.Flow{ok, tc.bad}}
			var res *Result
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Run panicked: %v", p)
					}
				}()
				res, err = Run(cfg)
			}()
			if err == nil {
				t.Fatalf("Run accepted the flow: Completed %d of Total %d", res.Completed, res.Total)
			}
			if !strings.Contains(err.Error(), "flow 7:") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name flow 7 and %q", err, tc.want)
			}
		})
	}
}
