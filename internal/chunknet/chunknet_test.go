package chunknet

import (
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/units"
)

// lineConfig is a small, fast INRPP setup on a 3-node line.
func lineConfig(t *testing.T, g *topo.Graph) *Sim {
	t.Helper()
	s, err := New(Config{
		Graph:        g,
		Transport:    INRPP,
		ChunkSize:    10 * units.KB,
		Anticipation: 8,
		CustodyBytes: 10 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestINRPPSimpleTransfer(t *testing.T) {
	g := topo.Line(3) // 10 Gbps links
	s := lineConfig(t, g)
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 200}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(5 * time.Second)
	if rep.DeliveredPerFlow[1] != 200 {
		t.Fatalf("delivered %d of 200 chunks", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Fatal("transfer did not complete")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.ChunksDropped)
	}
	// Conservation: delivered ≤ sent, and every distinct chunk exactly once.
	if rep.ChunksDelivered != 200 {
		t.Errorf("delivered counter = %d, want 200", rep.ChunksDelivered)
	}
	if rep.ChunksSent < 200 {
		t.Errorf("sent = %d < delivered", rep.ChunksSent)
	}
}

func TestINRPPMultipleFlowsShareSender(t *testing.T) {
	// Two flows from the same sender: processor sharing must complete
	// both, with neither starved.
	g := topo.Star(3) // hub 0, leaves 1..3
	s := lineConfig(t, g)
	if err := s.AddTransfer(Transfer{ID: 1, Src: 1, Dst: 2, Chunks: 150}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 2, Src: 1, Dst: 3, Chunks: 150}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * time.Second)
	if rep.DeliveredPerFlow[1] != 150 || rep.DeliveredPerFlow[2] != 150 {
		t.Fatalf("delivered = %v", rep.DeliveredPerFlow)
	}
	if len(rep.Completions) != 2 {
		t.Fatalf("completions = %d, want 2", len(rep.Completions))
	}
}

func TestINRPPBottleneckCustody(t *testing.T) {
	// Fast ingress, slow egress: the middle router must take custody of
	// the pushed surplus rather than drop it.
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:              g,
		Transport:          INRPP,
		ChunkSize:          10 * units.KB,
		Anticipation:       64,
		CustodyBytes:       100 * units.MB,
		InitialRequestRate: 100 * units.Mbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 500}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * time.Second)
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d, want 0 (custody should absorb)", rep.ChunksDropped)
	}
	if rep.DeliveredPerFlow[1] != 500 {
		t.Errorf("delivered = %d of 500", rep.DeliveredPerFlow[1])
	}
	if rep.CustodyPeak == 0 {
		t.Error("custody never used despite 10× bottleneck")
	}
	if rep.CustodyResidency.N() == 0 {
		t.Error("no residency samples recorded")
	}
}

func TestINRPPDetourOnFig3(t *testing.T) {
	// Push hard into the Fig. 3 bottleneck: the router should enter the
	// detour phase and tunnel chunks via node d.
	g := topo.Fig3()
	s, err := New(Config{
		Graph:              g,
		Transport:          INRPP,
		ChunkSize:          10 * units.KB,
		Anticipation:       64,
		CustodyBytes:       50 * units.MB,
		InitialRequestRate: 10 * units.Mbps,
		Ti:                 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 800}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(20 * time.Second)
	if rep.DeliveredPerFlow[1] != 800 {
		t.Fatalf("delivered = %d of 800", rep.DeliveredPerFlow[1])
	}
	if rep.ChunksDetoured == 0 {
		t.Error("no chunks detoured despite 2Mbps bottleneck with 5Mbps detour")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.ChunksDropped)
	}
}

func TestINRPPBackpressureWithoutDetour(t *testing.T) {
	// No detour exists on a line; sustained overload must fill custody,
	// fire back-pressure and flip the sender into closed-loop mode.
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 2, 5*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:              g,
		Transport:          INRPP,
		ChunkSize:          10 * units.KB,
		Anticipation:       256,
		QueueBytes:         200 * units.KB,
		CustodyBytes:       800 * units.KB, // small: fills quickly
		InitialRequestRate: 100 * units.Mbps,
		Ti:                 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 3000}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(8 * time.Second)
	if rep.BackpressureOn == 0 {
		t.Error("back-pressure never triggered")
	}
	if rep.ClosedLoopEntries == 0 {
		t.Error("sender never entered closed loop")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d; back-pressure should prevent drops", rep.ChunksDropped)
	}
}

func TestAIMDTransferCompletes(t *testing.T) {
	g := topo.Line(3)
	s, err := New(Config{
		Graph:     g,
		Transport: AIMD,
		ChunkSize: 10 * units.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 300}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * time.Second)
	if rep.DeliveredPerFlow[1] != 300 {
		t.Fatalf("delivered = %d of 300", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Fatal("AIMD transfer did not complete")
	}
}

func TestAIMDDropsAtBottleneck(t *testing.T) {
	// A tiny drop-tail buffer at a 20× bottleneck must lose packets and
	// force retransmissions — the failure mode custody avoids.
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 2, 5*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:      g,
		Transport:  AIMD,
		ChunkSize:  10 * units.KB,
		QueueBytes: 50 * units.KB, // 5 chunks of buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 2000}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(60 * time.Second)
	if rep.ChunksDropped == 0 {
		t.Error("AIMD with tiny buffer should drop packets")
	}
	if rep.Retransmits == 0 {
		t.Error("AIMD should retransmit after losses")
	}
	if rep.DeliveredPerFlow[1] != 2000 {
		t.Errorf("delivered = %d of 2000 despite retransmissions", rep.DeliveredPerFlow[1])
	}
}

func TestARCTransferCompletes(t *testing.T) {
	g := topo.Line(3)
	s, err := New(Config{
		Graph:     g,
		Transport: ARC,
		ChunkSize: 10 * units.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 300}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * time.Second)
	if rep.DeliveredPerFlow[1] != 300 {
		t.Fatalf("delivered = %d of 300", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Fatal("ARC transfer did not complete")
	}
	if rep.ChunksDetoured != 0 {
		t.Errorf("detoured = %d; ARC is single-path", rep.ChunksDetoured)
	}
}

func TestARCDropsAtBottleneck(t *testing.T) {
	// ARC probes with its request window: at a 20× bottleneck with a tiny
	// drop-tail buffer it must overshoot, lose chunks and re-request them
	// — receiver-driven pull alone does not avoid the loss custody does.
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 2, 5*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:      g,
		Transport:  ARC,
		ChunkSize:  10 * units.KB,
		QueueBytes: 50 * units.KB, // 5 chunks of buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 2000}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(60 * time.Second)
	if rep.ChunksDropped == 0 {
		t.Error("ARC with tiny buffer should drop chunks")
	}
	if rep.Retransmits == 0 {
		t.Error("ARC should re-request after losses")
	}
	if rep.DeliveredPerFlow[1] != 2000 {
		t.Errorf("delivered = %d of 2000 despite re-requests", rep.DeliveredPerFlow[1])
	}
}

// arcSmallBufferRun executes the adaptive-RTO regression scenario: a 20×
// bottleneck behind a 3-chunk drop-tail buffer, where losses are certain
// and recovery speed is set by the stall timer. minRTO = maxRTO pins the
// timer to the legacy fixed behaviour for comparison.
func arcSmallBufferRun(t *testing.T, horizon time.Duration, minRTO time.Duration) *Report {
	t.Helper()
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	g.MustAddLink(1, 2, 5*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:      g,
		Transport:  ARC,
		ChunkSize:  10 * units.KB,
		QueueBytes: 30 * units.KB, // 3 chunks: every probe overshoot drops
		MinRTO:     minRTO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 600}); err != nil {
		t.Fatal(err)
	}
	return s.Run(horizon)
}

// TestARCAdaptiveRTOAtSmallBuffers is the regression test for the
// RTT-tracked stall timer: with a 3-chunk buffer, the adaptive timer
// (RTT ≈ 20ms at this chain's bottleneck) must recover lost requests far
// faster than the legacy fixed 200ms timer, delivering strictly more in
// the same horizon — and still finish the transfer.
func TestARCAdaptiveRTOAtSmallBuffers(t *testing.T) {
	const horizon = 6 * time.Second
	adaptive := arcSmallBufferRun(t, horizon, 0) // default 10ms floor
	legacy := arcSmallBufferRun(t, horizon, maxRTO)

	if adaptive.ChunksDropped == 0 {
		t.Fatal("small buffer produced no drops; scenario cannot exercise recovery")
	}
	if adaptive.DeliveredPerFlow[1] <= legacy.DeliveredPerFlow[1] {
		t.Errorf("adaptive RTO delivered %d ≤ legacy fixed RTO %d at a small buffer",
			adaptive.DeliveredPerFlow[1], legacy.DeliveredPerFlow[1])
	}
	full := arcSmallBufferRun(t, 60*time.Second, 0)
	if full.DeliveredPerFlow[1] != 600 {
		t.Errorf("adaptive ARC delivered %d of 600", full.DeliveredPerFlow[1])
	}
	if _, ok := full.Completions[1]; !ok {
		t.Error("adaptive ARC transfer did not complete")
	}
}

// TestARCAdaptiveRTODeterministic: the RTT-tracked timer must not
// introduce schedule dependence — two identical runs report identically.
func TestARCAdaptiveRTODeterministic(t *testing.T) {
	a := arcSmallBufferRun(t, 5*time.Second, 0)
	b := arcSmallBufferRun(t, 5*time.Second, 0)
	if a.ChunksDelivered != b.ChunksDelivered || a.ChunksDropped != b.ChunksDropped ||
		a.Retransmits != b.Retransmits || a.Completions[1] != b.Completions[1] {
		t.Errorf("two identical ARC runs diverge: %+v vs %+v", a, b)
	}
}

func TestARCMultipleFlowsComplete(t *testing.T) {
	g := topo.Star(3)
	s, err := New(Config{Graph: g, Transport: ARC, ChunkSize: 10 * units.KB})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 1, Dst: 2, Chunks: 150}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 2, Src: 1, Dst: 3, Chunks: 150}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(10 * time.Second)
	if rep.DeliveredPerFlow[1] != 150 || rep.DeliveredPerFlow[2] != 150 {
		t.Fatalf("delivered = %v", rep.DeliveredPerFlow)
	}
}

func TestTransferValidation(t *testing.T) {
	g := topo.New("split")
	g.AddNodes(4)
	g.MustAddLink(0, 1, units.Gbps, 0)
	g.MustAddLink(2, 3, units.Gbps, 0)
	s, err := New(Config{Graph: g, Transport: INRPP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 3, Chunks: 1}); err == nil {
		t.Error("unreachable transfer should be rejected")
	}
	if err := s.AddTransfer(Transfer{ID: 2, Src: 0, Dst: 1, Chunks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 2, Src: 0, Dst: 1, Chunks: 1}); err == nil {
		t.Error("duplicate ID should be rejected")
	}
	if _, err := New(Config{Graph: nil}); err == nil {
		t.Error("nil graph should be rejected")
	}
}

func TestTransportString(t *testing.T) {
	if INRPP.String() != "INRPP" || AIMD.String() != "AIMD" || ARC.String() != "ARC" {
		t.Error("transport names wrong")
	}
	if Transport(7).String() != "Transport(7)" {
		t.Error("unknown transport should be explicit")
	}
}

// TestCustodyPaperScale reproduces the §3.3 sizing claim inside the
// simulator: with the bottleneck fully blocked, a 10GB custody store
// behind a 40Gbps link absorbs ≈2 seconds of incoming traffic.
func TestCustodyPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale custody run")
	}
	g := topo.New("chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 40*units.Gbps, time.Millisecond)
	g.MustAddLink(1, 2, 2*units.Gbps, time.Millisecond) // 20× bottleneck
	s, err := New(Config{
		Graph:              g,
		Transport:          INRPP,
		ChunkSize:          10 * units.MB,
		Anticipation:       4096,
		CustodyBytes:       10 * units.GB,
		InitialRequestRate: 40 * units.Gbps,
		Ti:                 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3000 chunks × 10MB = 30GB offered.
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 3000}); err != nil {
		t.Fatal(err)
	}
	rep := s.Run(4 * time.Second)
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.ChunksDropped)
	}
	// The store should have absorbed gigabytes of pushed surplus.
	if rep.CustodyPeak < units.GB {
		t.Errorf("custody peak = %v, want ≥ 1GB", rep.CustodyPeak)
	}
}
