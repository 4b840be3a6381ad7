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

// churnChain builds the 3-node bottleneck chain with a churn process on
// the egress link — the canonical disruption scenario: ingress keeps
// pushing while the bottleneck fails and recovers.
func churnChain(outage topo.OutageSpec) *topo.Graph {
	g := topo.New("churn-chain")
	g.AddNodes(3)
	g.MustAddLink(0, 1, 100*units.Mbps, time.Millisecond)
	egress := g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
	g.SetLinkOutage(egress, outage)
	return g
}

func churnConfig(g *topo.Graph, tr Transport, seed int64) Config {
	cfg := Config{
		Graph:     g,
		Transport: tr,
		ChunkSize: 10 * units.KB,
		ChurnSeed: seed,
	}
	if tr == INRPP {
		cfg.Anticipation = 64
		cfg.CustodyBytes = 50 * units.MB
		cfg.InitialRequestRate = 100 * units.Mbps
	} else {
		cfg.QueueBytes = 100 * units.KB
	}
	return cfg
}

func runChurn(t *testing.T, cfg Config, chunks int64, horizon time.Duration) *Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: chunks}); err != nil {
		t.Fatal(err)
	}
	return s.Run(horizon)
}

// TestChurnDeterminism pins the determinism contract under churn: two
// runs with the same ChurnSeed replay identically, and a different seed
// produces a different outage realization.
func TestChurnDeterminism(t *testing.T) {
	outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 500 * time.Millisecond, Down: 100 * time.Millisecond}
	a := runChurn(t, churnConfig(churnChain(outage), INRPP, 7), 300, 20*time.Second)
	b := runChurn(t, churnConfig(churnChain(outage), INRPP, 7), 300, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed churn runs diverged:\na: %+v\nb: %+v", a, b)
	}
	c := runChurn(t, churnConfig(churnChain(outage), INRPP, 8), 300, 20*time.Second)
	if reflect.DeepEqual(a.ArcDownSeconds, c.ArcDownSeconds) && a.ArcDownTransitions == c.ArcDownTransitions {
		t.Error("different ChurnSeed produced an identical outage realization")
	}
}

// TestChurnCustodySurvivesOutage is the tentpole's custody contract: a
// hard outage on the bottleneck pauses the arc, the store holds its
// chunks in custody, and on recovery they requeue and the transfer
// still completes without a single drop.
func TestChurnCustodySurvivesOutage(t *testing.T) {
	outage := topo.OutageSpec{Kind: topo.OutageFixed, Up: 400 * time.Millisecond, Down: 200 * time.Millisecond}
	rep := runChurn(t, churnConfig(churnChain(outage), INRPP, 1), 300, 30*time.Second)
	if rep.ArcDownTransitions == 0 {
		t.Fatal("no outage transitions; churn never armed")
	}
	if rep.ArcDownSeconds == 0 {
		t.Error("outages recorded but no down seconds accumulated")
	}
	if rep.ChunksRequeued == 0 {
		t.Error("custody held nothing across a hard outage on a saturated bottleneck")
	}
	if rep.ChunksDropped != 0 {
		t.Errorf("dropped = %d; custody should absorb the outage backlog", rep.ChunksDropped)
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Error("transfer did not complete despite custody")
	}
}

// TestChurnInFlightLost: packets caught on the wire by a hard failure —
// mid-serialization or in the propagation pipe — are dropped, and the
// transport recovers them.
func TestChurnInFlightLost(t *testing.T) {
	// 10KB at 10Mbps serialises in 8ms; up=100ms/down=50ms cycles catch a
	// chunk on the wire on effectively every failure.
	outage := topo.OutageSpec{Kind: topo.OutageFixed, Up: 100 * time.Millisecond, Down: 50 * time.Millisecond}
	rep := runChurn(t, churnConfig(churnChain(outage), INRPP, 1), 200, 30*time.Second)
	if rep.ChunksLostInFlight == 0 {
		t.Fatal("no in-flight losses despite failures landing mid-transmission")
	}
	if rep.DeliveredPerFlow[1] != 200 {
		t.Errorf("delivered = %d of 200; NACK recovery should replace in-flight losses", rep.DeliveredPerFlow[1])
	}
}

// TestChurnSoftOutage: a degraded phase (DownRate > 0) throttles the arc
// instead of pausing it — nothing is dropped, nothing requeues, and the
// transfer completes through the slow periods.
func TestChurnSoftOutage(t *testing.T) {
	outage := topo.OutageSpec{
		Kind: topo.OutageFixed, Up: 200 * time.Millisecond, Down: 200 * time.Millisecond,
		DownRate: units.Mbps,
	}
	rep := runChurn(t, churnConfig(churnChain(outage), INRPP, 1), 200, 30*time.Second)
	if rep.ArcDownTransitions == 0 {
		t.Fatal("no degraded phases recorded")
	}
	if rep.ChunksLostInFlight != 0 {
		t.Errorf("lost in-flight = %d; a soft outage must not drop packets", rep.ChunksLostInFlight)
	}
	if rep.ChunksRequeued != 0 {
		t.Errorf("requeued = %d; a soft outage never pauses the serializer", rep.ChunksRequeued)
	}
	if rep.DeliveredPerFlow[1] != 200 {
		t.Errorf("delivered = %d of 200", rep.DeliveredPerFlow[1])
	}
}

// TestChurnINRPPCompletesWhereAIMDStalls is the paper's headline claim
// made measurable: under identical seeded churn, custody carries INRPP
// to completion while AIMD's end-to-end loss recovery cannot finish
// inside the same horizon.
func TestChurnINRPPCompletesWhereAIMDStalls(t *testing.T) {
	// Down two-thirds of the time: the bottleneck's duty cycle leaves
	// just enough capacity for a custodian that resumes instantly on
	// every recovery, and not for a loss loop that pays an RTO plus a
	// window collapse per outage.
	outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 200 * time.Millisecond, Down: 400 * time.Millisecond}
	const chunks, horizon = 500, 30 * time.Second
	inrpp := runChurn(t, churnConfig(churnChain(outage), INRPP, 3), chunks, horizon)
	aimd := runChurn(t, churnConfig(churnChain(outage), AIMD, 3), chunks, horizon)
	if _, ok := inrpp.Completions[1]; !ok {
		t.Fatalf("INRPP did not complete under churn (delivered %d of %d)", inrpp.DeliveredPerFlow[1], chunks)
	}
	if _, ok := aimd.Completions[1]; ok {
		t.Fatalf("AIMD completed under churn it was expected to stall in (delivered %d)", aimd.DeliveredPerFlow[1])
	}
	if aimd.DeliveredPerFlow[1] >= inrpp.DeliveredPerFlow[1] {
		t.Errorf("AIMD delivered %d ≥ INRPP %d under identical churn", aimd.DeliveredPerFlow[1], inrpp.DeliveredPerFlow[1])
	}
}

// TestNackRearmRecoversLostResend is the regression test for the
// one-shot NACK deadlock: under repeated hard outages the re-requested
// chunk (or the re-request itself) is eventually lost on the wire, and
// the old `missing != f.lastNack` guard then blocked every further NACK
// — the transfer stalled to the horizon. The per-epoch re-arm must
// instead complete the transfer.
func TestNackRearmRecoversLostResend(t *testing.T) {
	// This exact (cycle, seed) pair deadlocks the one-shot guard: the
	// old logic stalls at 297 of 300 chunks for the rest of the 60s
	// horizon because the NACKed resend is destroyed in-flight and no
	// second NACK can fire.
	outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 300 * time.Millisecond, Down: 150 * time.Millisecond}
	rep := runChurn(t, churnConfig(churnChain(outage), INRPP, 2), 300, 60*time.Second)
	if rep.ChunksLostInFlight == 0 {
		t.Fatal("scenario produced no in-flight losses; it cannot exercise NACK recovery")
	}
	if rep.Retransmits == 0 {
		t.Fatal("scenario produced no resends; it cannot exercise the deadlock path")
	}
	if rep.DeliveredPerFlow[1] != 300 {
		t.Errorf("delivered = %d of 300: NACK recovery deadlocked", rep.DeliveredPerFlow[1])
	}
	if _, ok := rep.Completions[1]; !ok {
		t.Error("transfer did not complete: one-shot NACK deadlock regressed")
	}
}

// TestRunTwicePanics pins the Sim.Run single-use contract.
func TestRunTwicePanics(t *testing.T) {
	s, err := New(Config{Graph: topo.Line(3), Transport: INRPP, ChunkSize: 10 * units.KB})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransfer(Transfer{ID: 1, Src: 0, Dst: 2, Chunks: 10}); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("second Run call did not panic")
		}
	}()
	s.Run(time.Second)
}

// TestStoreKeysDenseUnderDrops pins the satellite fix: rejected offers
// must not consume a custody key, so the store's keys and the pktq
// mirror stay dense and aligned under drops.
func TestStoreKeysDenseUnderDrops(t *testing.T) {
	g := topo.New("pair")
	g.AddNodes(2)
	g.MustAddLink(0, 1, 10*units.Mbps, time.Millisecond)
	s, err := New(Config{
		Graph:      g,
		Transport:  AIMD,
		ChunkSize:  10 * units.KB,
		QueueBytes: 50 * units.KB, // 5 chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	a := s.arcFor(0, 1)
	a.busy = true // hold the serializer so the store never drains
	accepted, rejected := 0, 0
	for i := 0; i < 12; i++ {
		p := s.newPacket()
		p.kind = pktData
		p.seq = int64(i)
		p.size = 10 * units.KB
		p.prevHop = 0
		if a.send(p) {
			accepted++
		} else {
			rejected++
			s.freePacket(p)
		}
	}
	if rejected == 0 {
		t.Fatal("no offers rejected; scenario cannot pin the invariant")
	}
	if got := int(a.seqNo); got != accepted {
		t.Errorf("seqNo = %d after %d accepts (%d rejects): keys not dense", got, accepted, rejected)
	}
	if mirror := len(a.pktq) - a.pktHead; mirror != a.store.Len() {
		t.Errorf("pktq holds %d packets, store holds %d: mirror broken", mirror, a.store.Len())
	}
	// Draining must yield the accepted packets in order, keys 0..n-1.
	a.busy = false
	for i := 0; i < accepted; i++ {
		item, ok := a.store.Pop(s.des.Now())
		if !ok {
			t.Fatalf("store exhausted at %d of %d", i, accepted)
		}
		if item.Key != uint64(i) {
			t.Fatalf("popped key %d at position %d: keys not dense", item.Key, i)
		}
	}
}

// TestBackpressureWatermarkBoundaries pins the exact comparison
// semantics at the watermarks: occupancy == bpHigh triggers
// (checkBackpressure returns early only below it), and occupancy == bpLow
// releases (maybeReleaseBackpressure returns early only above it).
func TestBackpressureWatermarkBoundaries(t *testing.T) {
	build := func() (*Sim, *arcState) {
		g := topo.New("chain")
		g.AddNodes(3)
		g.MustAddLink(0, 1, 10*units.Mbps, time.Millisecond)
		g.MustAddLink(1, 2, 10*units.Mbps, time.Millisecond)
		s, err := New(Config{
			Graph:        g,
			Transport:    INRPP,
			ChunkSize:    10 * units.KB,
			QueueBytes:   50 * units.KB,
			CustodyBytes: 50 * units.KB, // store capacity 100KB = 10 chunks
			// bpHigh 0.7 (7 chunks), bpLow 0.3 (3 chunks).
		})
		if err != nil {
			t.Fatal(err)
		}
		a := s.arcFor(1, 2)
		a.busy = true // hold the serializer: occupancy moves only when we say
		return s, a
	}
	push := func(s *Sim, a *arcState, n int) {
		for i := 0; i < n; i++ {
			p := s.newPacket()
			p.kind = pktData
			p.seq = int64(i)
			p.size = 10 * units.KB
			p.prevHop = 0 // a real upstream neighbor, so notification applies
			if !a.send(p) {
				t.Fatalf("store rejected chunk %d below capacity", i)
			}
		}
	}

	// One chunk below the high watermark: no trigger.
	s, a := build()
	push(s, a, 6)
	if a.bpActive {
		t.Errorf("back-pressure active at occupancy %.2f < high watermark", a.occupancyFraction())
	}

	// Exactly on the high watermark: triggers.
	s, a = build()
	push(s, a, 7)
	if got := a.occupancyFraction(); got != 0.7 {
		t.Fatalf("setup drift: occupancy = %v, want exactly 0.7", got)
	}
	if !a.bpActive {
		t.Error("back-pressure not active at occupancy exactly on the high watermark")
	}

	// Drain to one above the low watermark: still held.
	for a.store.Len() > 4 {
		a.next()
	}
	if !a.bpActive {
		t.Errorf("back-pressure released at occupancy %.2f > low watermark", a.occupancyFraction())
	}

	// Exactly on the low watermark: releases.
	a.next()
	if got := a.occupancyFraction(); got != 0.3 {
		t.Fatalf("setup drift: occupancy = %v, want exactly 0.3", got)
	}
	if a.bpActive {
		t.Error("back-pressure still active at occupancy exactly on the low watermark")
	}
}

// TestChurnObsNeutral extends the determinism contract to churned runs:
// instruments and traces must not change a single outcome, and the new
// churn instruments must agree with the report.
func TestChurnObsNeutral(t *testing.T) {
	outage := topo.OutageSpec{Kind: topo.OutageExp, Up: 300 * time.Millisecond, Down: 150 * time.Millisecond}
	plain := runChurn(t, churnConfig(churnChain(outage), INRPP, 5), 300, 20*time.Second)

	reg := obs.New("churn-test")
	var traced bytes.Buffer
	cfg := churnConfig(churnChain(outage), INRPP, 5)
	cfg.Obs = reg
	cfg.Trace = obs.NewTrace(&traced, 1)
	cfg.TraceLabel = "churn"
	instrumented := runChurn(t, cfg, 300, 20*time.Second)

	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented churn report diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"chunknet_arc_down_transitions": instrumented.ArcDownTransitions,
		"chunknet_chunks_requeued":      instrumented.ChunksRequeued,
		"chunknet_chunks_lost_inflight": instrumented.ChunksLostInFlight,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (report)", name, got, want)
		}
	}
	// Per-arc churn instruments exist exactly for the churned link's two
	// arcs, and their transition counts sum to the report's.
	var perArc int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "arc_down_transitions") {
			perArc += v
		}
	}
	if perArc != instrumented.ArcDownTransitions {
		t.Errorf("per-arc down transitions sum to %d, report says %d", perArc, instrumented.ArcDownTransitions)
	}
	// The down-seconds histograms sum to the report's total.
	var downSum float64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "arc_down_seconds") {
			downSum += h.Sum
		}
	}
	if diff := downSum - instrumented.ArcDownSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("histogram down seconds = %v, report says %v", downSum, instrumented.ArcDownSeconds)
	}
	out := traced.String()
	for _, want := range []string{`"event":"arc_down"`, `"event":"arc_up"`, `"event":"chunk_lost"`} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestChurnFreeRunsUnchanged: a config without churn registers no churn
// instruments and reports zero churn counters — the no-churn metric set
// (and therefore every golden fixture) is untouched by the feature.
func TestChurnFreeRunsUnchanged(t *testing.T) {
	reg := obs.New("no-churn")
	cfg := churnConfig(churnChain(topo.OutageSpec{}), INRPP, 1)
	cfg.Obs = reg
	rep := runChurn(t, cfg, 100, 10*time.Second)
	if rep.ArcDownTransitions != 0 || rep.ArcDownSeconds != 0 || rep.ChunksRequeued != 0 || rep.ChunksLostInFlight != 0 {
		t.Errorf("churn-free run reported churn: %+v", rep)
	}
	if rep.SRLGDownTransitions != 0 || rep.PktsLostRandom != 0 || rep.DetourFailovers != 0 || rep.ChunksEvacuated != 0 {
		t.Errorf("failure-free run reported failure activity: %+v", rep)
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		for _, frag := range []string{"down", "requeued", "inflight", "srlg", "lost_random", "failover", "evacuated"} {
			if strings.Contains(name, frag) {
				t.Errorf("failure-free run registered failure instrument %s", name)
			}
		}
	}
}
