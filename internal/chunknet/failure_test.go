package chunknet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// failureDiamond builds the failover topology: the 0→1→2 route crosses a
// 10Mbps egress bottleneck, and node 3 offers the one-hop detour 1→3→2
// at detourRate. Failure specs go on the egress link via the returned ID.
func failureDiamond(detourRate units.BitRate) (*topo.Graph, topo.LinkID) {
	g := topo.New("failure-diamond")
	g.AddNodes(4)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	egress := g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 3, detourRate, time.Millisecond)
	g.MustAddLink(3, 2, detourRate, time.Millisecond)
	return g, egress
}

// runFailure is runChurn with an explicit destination, for graphs whose
// sink is not node 2.
func runFailure(t *testing.T, cfg Config, dst topo.NodeID, chunks int64, horizon time.Duration) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: dst, Chunks: chunks}); err != nil {
		t.Fatal(err)
	}
	return s.Run(horizon)
}

// TestConfigFailureValidation: New rejects an out-of-range failover mode
// instead of silently misbehaving.
func TestConfigFailureValidation(t *testing.T) {
	cfg := churnConfig(churnChain(topo.OutageSpec{}), INRPP, 1)
	cfg.Failover = FailoverMode(99)
	if _, err := New(cfg); err == nil {
		t.Error("New accepted failover mode 99")
	}
}

// TestLossFreeRunsBitIdentical pins the p=0 fast path: declaring a zero
// loss probability must not arm a loss stream, so the run is
// bit-identical to one that never mentions loss at all.
func TestLossFreeRunsBitIdentical(t *testing.T) {
	plain := runChurn(t, churnConfig(churnChain(topo.OutageSpec{}), INRPP, 1), 200, 20*time.Second)
	g := churnChain(topo.OutageSpec{})
	g.SetLinkLoss(1, 0)
	zero := runChurn(t, churnConfig(g, INRPP, 1), 200, 20*time.Second)
	if !reflect.DeepEqual(plain, zero) {
		t.Fatalf("loss_prob=0 diverged from lossless run:\nplain: %+v\nzero:  %+v", plain, zero)
	}
	if zero.PktsLostRandom != 0 {
		t.Errorf("p=0 run lost %d packets", zero.PktsLostRandom)
	}
}

// TestLossDeterminism: the per-arc loss stream is part of the seeded
// contract — same ChurnSeed replays identically, a different seed draws a
// different loss realization.
func TestLossDeterminism(t *testing.T) {
	lossy := func() *topo.Graph {
		g := churnChain(topo.OutageSpec{})
		g.SetLinkLoss(1, 0.05)
		return g
	}
	a := runChurn(t, churnConfig(lossy(), INRPP, 7), 300, 30*time.Second)
	b := runChurn(t, churnConfig(lossy(), INRPP, 7), 300, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed lossy runs diverged:\na: %+v\nb: %+v", a, b)
	}
	if a.PktsLostRandom == 0 {
		t.Fatal("5%% loss over a 300-chunk transfer lost nothing; stream not armed")
	}
	c := runChurn(t, churnConfig(lossy(), INRPP, 8), 300, 30*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Error("different ChurnSeed produced an identical loss realization")
	}
}

// TestLossExercisesNackRecovery: sustained random loss continuously
// drives the NACK/resend path — losses happen, resends happen, and every
// chunk still arrives.
func TestLossExercisesNackRecovery(t *testing.T) {
	g := churnChain(topo.OutageSpec{})
	g.SetLinkLoss(1, 0.05)
	rep := runChurn(t, churnConfig(g, INRPP, 1), 300, 30*time.Second)
	if rep.PktsLostRandom == 0 {
		t.Fatal("no random losses; scenario cannot exercise recovery")
	}
	if rep.Retransmits == 0 {
		t.Error("random data loss triggered no resends")
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300 under 5%% loss", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Error("transfer did not complete under 5%% loss")
	}
}

// TestLossINRPPCompletesWhereAIMDCollapses is satellite 3's regression
// frontier: under identical seeded 5% loss, hop-by-hop NACK recovery
// completes the transfer while AIMD's end-to-end window collapses on
// every loss and cannot finish inside the same horizon.
func TestLossINRPPCompletesWhereAIMDCollapses(t *testing.T) {
	lossy := func() *topo.Graph {
		g := churnChain(topo.OutageSpec{})
		g.SetLinkLoss(1, 0.05)
		return g
	}
	const chunks, horizon = 500, 30 * time.Second
	inrpp := runChurn(t, churnConfig(lossy(), INRPP, 3), chunks, horizon)
	aimd := runChurn(t, churnConfig(lossy(), AIMD, 3), chunks, horizon)
	if _, ok := inrpp.Completions[1]; !ok {
		t.Fatalf("INRPP did not complete under 5%% loss (delivered %d of %d)", inrpp.DeliveredPerFlow[1], chunks)
	}
	if _, ok := aimd.Completions[1]; ok {
		t.Fatalf("AIMD completed under loss it was expected to collapse in (delivered %d)", aimd.DeliveredPerFlow[1])
	}
	if aimd.DeliveredPerFlow[1] >= inrpp.DeliveredPerFlow[1] {
		t.Errorf("AIMD delivered %d ≥ INRPP %d under identical loss", aimd.DeliveredPerFlow[1], inrpp.DeliveredPerFlow[1])
	}
}

// TestCalendarExactness: maintenance windows are not stochastic — the
// declared windows produce exactly their transitions and down-seconds, on
// both arcs of the link, and custody carries the transfer through.
func TestCalendarExactness(t *testing.T) {
	g := churnChain(topo.OutageSpec{})
	g.SetLinkCalendar(1, topo.CalendarSpec{Windows: []topo.Window{
		{Start: time.Second, End: 2 * time.Second},
		{Start: 4 * time.Second, End: 5 * time.Second},
	}})
	rep := runChurn(t, churnConfig(g, INRPP, 1), 300, 30*time.Second)
	if rep.ArcDownTransitions != 4 {
		t.Errorf("down transitions = %d, want exactly 4 (2 windows × 2 arcs)", rep.ArcDownTransitions)
	}
	if rep.ArcDownSeconds != 4.0 {
		t.Errorf("down seconds = %v, want exactly 4.0", rep.ArcDownSeconds)
	}
	if rep.ChunksRequeued == 0 {
		t.Error("maintenance on a saturated bottleneck held nothing in custody")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d; custody should absorb maintenance", rep.ChunksDropped)
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300", rep.DeliveredPerFlow[1])
	}
}

// TestCalendarSeedInvariant: a calendar-only failure model consumes no
// randomness, so the run is bit-identical across ChurnSeeds.
func TestCalendarSeedInvariant(t *testing.T) {
	build := func(seed int64) Config {
		g := churnChain(topo.OutageSpec{})
		g.SetLinkCalendar(1, topo.CalendarSpec{Windows: []topo.Window{{Start: time.Second, End: 2 * time.Second}}})
		return churnConfig(g, INRPP, seed)
	}
	a := runChurn(t, build(1), 200, 20*time.Second)
	b := runChurn(t, build(99), 200, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("calendar-only runs diverged across seeds:\nseed 1:  %+v\nseed 99: %+v", a, b)
	}
}

// TestCalendarComposesWithChurn: a calendar and a churn process on the
// same link overlap freely — the union down time is at least the
// calendar's exact contribution, and the transfer still completes.
func TestCalendarComposesWithChurn(t *testing.T) {
	outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 300 * time.Millisecond, Down: 150 * time.Millisecond}
	g := churnChain(outage)
	g.SetLinkCalendar(1, topo.CalendarSpec{Windows: []topo.Window{
		{Start: 2 * time.Second, End: 4 * time.Second},
	}})
	rep := runChurn(t, churnConfig(g, INRPP, 1), 300, 40*time.Second)
	// The calendar alone is 2s × 2 arcs; churn only adds to the union.
	if rep.ArcDownSeconds < 4.0 {
		t.Errorf("union down seconds = %v < the calendar's exact 4.0", rep.ArcDownSeconds)
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d; custody should absorb composed outages", rep.ChunksDropped)
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300 under composed churn+maintenance", rep.DeliveredPerFlow[1])
	}
}

// TestSRLGCorrelatedFailure: one group process takes both bottleneck
// links down together — every group transition is 4 simultaneous arc
// transitions (2 links × 2 directions), and custody on both hops carries
// the transfer across the correlated outages.
func TestSRLGCorrelatedFailure(t *testing.T) {
	g := topo.New("srlg-chain")
	g.AddNodes(4)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	l12 := g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
	l23 := g.MustAddLink(2, 3, 10*units.Mbps, time.Millisecond)
	g.MustAddSRLG(topo.SRLG{
		Name:   "conduit",
		Links:  []topo.LinkID{l12, l23},
		Outage: topo.OutageSpec{Kind: topo.OutageFixed, Up: 400 * time.Millisecond, Down: 200 * time.Millisecond},
	})
	rep := runFailure(t, churnConfig(g, INRPP, 1), 3, 300, 30*time.Second)
	if rep.SRLGDownTransitions == 0 {
		t.Fatal("no correlated transitions; SRLG process never armed")
	}
	if rep.ArcDownTransitions != 4*rep.SRLGDownTransitions {
		t.Errorf("arc transitions = %d, want 4 per group transition (%d groups × 4 arcs)",
			rep.ArcDownTransitions, rep.SRLGDownTransitions)
	}
	if rep.ChunksRequeued == 0 {
		t.Error("correlated hard outages held nothing in custody")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d; custody should absorb correlated outages", rep.ChunksDropped)
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Error("transfer did not complete across correlated failures")
	}
}

// blackoutConfig is the failover frontier's first half: the egress link
// goes hard-down at 1s and stays down past the horizon. The sender's
// request rate sits below the bottleneck, so the interface never enters
// the congestion detour phase — only failover policy distinguishes the
// strategies.
func blackoutConfig(mode FailoverMode, seed int64) Config {
	g, egress := failureDiamond(10 * units.Mbps)
	g.SetLinkCalendar(egress, topo.CalendarSpec{Windows: []topo.Window{
		{Start: time.Second, End: 5 * time.Minute},
	}})
	cfg := churnConfig(g, INRPP, seed)
	cfg.InitialRequestRate = 8 * units.Mbps
	cfg.Failover = mode
	return cfg
}

// TestFailoverBlackoutRerouteCompletesWhereHoldStalls: under a blackout
// with a healthy detour, hold keeps the backlog in custody to the horizon
// while reroute evacuates it through the detour and completes.
func TestFailoverBlackoutRerouteCompletesWhereHoldStalls(t *testing.T) {
	const chunks, horizon = 300, 20 * time.Second
	hold := runChurn(t, blackoutConfig(FailoverHold, 1), chunks, horizon)
	reroute := runChurn(t, blackoutConfig(FailoverReroute, 1), chunks, horizon)
	if _, ok := hold.Completions[1]; ok {
		t.Fatalf("hold completed through a blackout (delivered %d)", hold.DeliveredPerFlow[1])
	}
	if _, ok := reroute.Completions[1]; !ok {
		t.Fatalf("reroute did not complete around the blackout (delivered %d of %d)",
			reroute.DeliveredPerFlow[1], chunks)
	}
	if reroute.DetourFailovers == 0 {
		t.Error("reroute completed without a single failover detour")
	}
	if reroute.ChunksEvacuated == 0 {
		t.Error("reroute never evacuated the custody backlog trapped at the blackout")
	}
	if reroute.ChunksDropped != 0 {
		t.Errorf("reroute dropped %d; evacuation must never trade custody for a drop", reroute.ChunksDropped)
	}
	if hold.ChunksEvacuated != 0 || hold.DetourFailovers != 0 {
		t.Errorf("hold recorded failover activity: evacuated=%d detours=%d",
			hold.ChunksEvacuated, hold.DetourFailovers)
	}
}

// flutterConfig is the frontier's other half: rapid hard flutter on the
// egress with only a thin detour available. Hold rides the duty cycle;
// reroute keeps committing chunks to the thin path, where they crawl.
func flutterConfig(mode FailoverMode, seed int64) Config {
	g, egress := failureDiamond(units.Mbps)
	g.SetLinkOutage(egress, topo.OutageSpec{
		Kind: topo.OutageFixed, Up: 200 * time.Millisecond, Down: 600 * time.Millisecond,
	})
	cfg := churnConfig(g, INRPP, seed)
	cfg.InitialRequestRate = 8 * units.Mbps
	cfg.Failover = mode
	return cfg
}

// TestFailoverFlutterHoldBeatsReroute: under flutter with a thin detour,
// custody-and-wait completes inside the horizon while rerouting traps
// chunks on the detour path and cannot.
func TestFailoverFlutterHoldBeatsReroute(t *testing.T) {
	const chunks, horizon = 300, 15 * time.Second
	hold := runChurn(t, flutterConfig(FailoverHold, 1), chunks, horizon)
	reroute := runChurn(t, flutterConfig(FailoverReroute, 1), chunks, horizon)
	if _, ok := hold.Completions[1]; !ok {
		t.Fatalf("hold did not complete under flutter (delivered %d of %d)", hold.DeliveredPerFlow[1], chunks)
	}
	if _, ok := reroute.Completions[1]; ok {
		t.Fatalf("reroute completed under flutter it was expected to lose (delivered %d, hold took %v)",
			reroute.DeliveredPerFlow[1], hold.Completions[1])
	}
	if reroute.DetourFailovers == 0 {
		t.Error("reroute never failover-detoured; scenario exercises nothing")
	}
}

// TestFailoverBothDetoursFreshHoldsBacklog: the hybrid mode detours
// freshly arriving chunks around the outage but never drains custody.
// Custody is kept small so back-pressure paces the sender and chunks are
// still arriving at the failed router mid-blackout.
func TestFailoverBothDetoursFreshHoldsBacklog(t *testing.T) {
	cfg := blackoutConfig(FailoverBoth, 1)
	cfg.CustodyBytes = 500 * units.KB
	rep := runChurn(t, cfg, 300, 20*time.Second)
	if rep.DetourFailovers == 0 {
		t.Error("both-mode never failover-detoured fresh chunks")
	}
	if rep.ChunksEvacuated != 0 {
		t.Errorf("both-mode evacuated %d chunks; the backlog must stay in custody", rep.ChunksEvacuated)
	}
}

// TestFailoverDeterminism: the full failure model at once — SRLG churn,
// maintenance, random loss, and reroute failover — still replays
// bit-identically under one seed.
func TestFailoverDeterminism(t *testing.T) {
	build := func(seed int64) Config {
		g, egress := failureDiamond(10 * units.Mbps)
		ingress := topo.LinkID(0)
		g.SetLinkLoss(ingress, 0.02)
		g.SetLinkCalendar(egress, topo.CalendarSpec{Windows: []topo.Window{
			{Start: 2 * time.Second, End: 3 * time.Second},
		}})
		g.MustAddSRLG(topo.SRLG{
			Name:   "conduit",
			Links:  []topo.LinkID{egress},
			Outage: topo.OutageSpec{Kind: topo.OutageExp, Up: 500 * time.Millisecond, Down: 200 * time.Millisecond},
		})
		cfg := churnConfig(g, INRPP, seed)
		cfg.Failover = FailoverReroute
		return cfg
	}
	a := runChurn(t, build(5), 300, 30*time.Second)
	b := runChurn(t, build(5), 300, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed failover runs diverged:\na: %+v\nb: %+v", a, b)
	}
	if a.SRLGDownTransitions == 0 || a.PktsLostRandom == 0 {
		t.Errorf("scenario idle: srlg=%d lost=%d", a.SRLGDownTransitions, a.PktsLostRandom)
	}
	c := runChurn(t, build(6), 300, 30*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Error("different ChurnSeed produced an identical failure realization")
	}
}

// TestFailureObsParity: instrumenting a run with the full failure model
// changes no outcome, and the new counters agree with the report.
func TestFailureObsParity(t *testing.T) {
	build := func() Config {
		g, egress := failureDiamond(10 * units.Mbps)
		g.SetLinkLoss(egress, 0.02)
		g.MustAddSRLG(topo.SRLG{
			Name:   "conduit",
			Links:  []topo.LinkID{egress},
			Outage: topo.OutageSpec{Kind: topo.OutageFixed, Up: 400 * time.Millisecond, Down: 300 * time.Millisecond},
		})
		cfg := churnConfig(g, INRPP, 5)
		cfg.Failover = FailoverReroute
		return cfg
	}
	plain := runChurn(t, build(), 300, 20*time.Second)

	reg := obs.New("failure-test")
	var traced bytes.Buffer
	cfg := build()
	cfg.Obs = reg
	cfg.Trace = obs.NewTrace(&traced, 1)
	cfg.TraceLabel = "failure"
	instrumented := runChurn(t, cfg, 300, 20*time.Second)

	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented failure report diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"chunknet_srlg_down_transitions": instrumented.SRLGDownTransitions,
		"chunknet_pkts_lost_random":      instrumented.PktsLostRandom,
		"chunknet_detour_failovers":      instrumented.DetourFailovers,
		"chunknet_chunks_evacuated":      instrumented.ChunksEvacuated,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (report)", name, got, want)
		}
	}
	// The per-group and per-arc labelled instruments sum to the sim-wide
	// totals.
	var perGroup, perArcLost int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "srlg_down_transitions") {
			perGroup += v
		}
		if strings.HasPrefix(name, "arc_pkts_lost_random") {
			perArcLost += v
		}
	}
	if perGroup != instrumented.SRLGDownTransitions {
		t.Errorf("per-group transitions sum to %d, report says %d", perGroup, instrumented.SRLGDownTransitions)
	}
	if perArcLost != instrumented.PktsLostRandom {
		t.Errorf("per-arc random losses sum to %d, report says %d", perArcLost, instrumented.PktsLostRandom)
	}
	out := traced.String()
	for _, want := range []string{`"event":"srlg_down"`} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
}
