package repro

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestFacade exercises the public API end to end: topology, detour
// analysis, flow simulation and chunk simulation through the root
// package only.
func TestFacade(t *testing.T) {
	if len(ISPs()) != 9 {
		t.Fatalf("ISPs = %d, want 9", len(ISPs()))
	}
	g, err := BuildISP("VSNL (IN)")
	if err != nil {
		t.Fatal(err)
	}
	prof := AnalyzeDetours(g)
	if prof.Total != g.NumLinks() {
		t.Errorf("profile total %d != links %d", prof.Total, g.NumLinks())
	}

	fig3 := Fig3Topology()
	flows := workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(100, 1),
		Sizes:    workload.Constant(MB),
		Matrix:   workload.NewUniform(fig3, 2),
		Count:    10,
	})
	res, err := RunFlows(FlowConfig{Graph: fig3, Policy: INRP, Flows: flows, Horizon: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("facade flow run moved no bytes")
	}

	sim, err := NewChunkSim(ChunkConfig{Graph: Fig3Topology(), Transport: INRPP, ChunkSize: 10 * KB})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTransfer(ChunkTransfer{ID: 1, Src: 0, Dst: 4, Chunks: 50}); err != nil {
		t.Fatal(err)
	}
	rep := sim.Run(5 * time.Second)
	if rep.DeliveredPerFlow[1] != 50 {
		t.Errorf("facade chunk run delivered %d/50", rep.DeliveredPerFlow[1])
	}
}

// TestSweepFacade drives a small grid sweep through the public API only:
// grid expansion, worker-pool execution, aggregation and rendering.
func TestSweepFacade(t *testing.T) {
	grid := NewSweepGrid().Axis("policy", "SP", "INRP")
	scenarios := grid.Expand(1, 2, func(pt SweepPoint, replica int, _ int64) SweepRunFunc {
		spec := FlowSweepSpec{
			ISP:       "VSNL (IN)",
			Capacity:  100 * Mbps,
			Flows:     20,
			MeanSize:  20 * MB,
			DemandCap: 50 * Mbps,
			Horizon:   4 * time.Second,
		}
		spec.Policy = MustParseFlowPolicy(pt.Get("policy"))
		return spec.Run(DeriveSweepSeed(1, "shared", replica))
	})
	if len(scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(scenarios))
	}
	results := RunSweep(context.Background(), 2, scenarios)
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	aggs := AggregateSweep(results)
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want 2", len(aggs))
	}
	for _, a := range aggs {
		if a.Replicas != 2 {
			t.Errorf("point %s: replicas = %d, want 2", a.Point, a.Replicas)
		}
		if a.Mean("demand_satisfied") <= 0 {
			t.Errorf("point %s: no throughput measured", a.Point)
		}
	}
	if out := SweepTable("t", aggs).String(); !strings.Contains(out, "demand_satisfied") {
		t.Errorf("sweep table missing metrics:\n%s", out)
	}
	var buf bytes.Buffer
	if err := SweepCSV(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	if err := SweepJSON(&buf, aggs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty CSV/JSON output")
	}
}

// TestChunkSweepFacade drives a chunknet grid with checkpoint/resume
// through the public API only.
func TestChunkSweepFacade(t *testing.T) {
	grid := NewSweepGrid().Axis("transport", "inrpp", "aimd", "arc")
	scenarios := grid.Expand(1, 1, func(pt SweepPoint, replica int, seed int64) SweepRunFunc {
		spec := ChunkSweepSpec{
			Transport:    MustParseChunkTransport(pt.Get("transport")),
			IngressRate:  100 * Mbps,
			EgressRate:   20 * Mbps,
			ChunkSize:    50 * KB,
			Anticipation: 64,
			Custody:      10 * MB,
			Buffer:       500 * KB,
			Chunks:       100,
			Horizon:      2 * time.Second,
		}
		return spec.Run(seed)
	})
	const label = "facade chunk demo"
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := NewSweepCheckpoint(path, label)
	if err != nil {
		t.Fatal(err)
	}
	runner := &SweepRunner{Workers: 2, Progress: cp.Progress(nil)}
	results := runner.Run(context.Background(), scenarios)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Metrics.Values["delivered"] <= 0 {
			t.Errorf("%s delivered nothing", r.Name)
		}
	}
	if _, n, err := LoadSweepCheckpoint(path, label, scenarios); err != nil || n != len(scenarios) {
		t.Fatalf("LoadSweepCheckpoint: n=%d err=%v", n, err)
	}
	acc := NewSweepAccumulator(SweepAccumulatorConfig{}, scenarios)
	n, failed, err := (&SweepRunner{Workers: 2}).ResumeCheckpointAccumulate(context.Background(), path, label, scenarios, acc, nil)
	if err != nil || n != len(scenarios) || len(failed) != 0 {
		t.Fatalf("resume: restored %d, failed %v, err %v", n, failed, err)
	}
	restored, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	var liveBuf, restoredBuf bytes.Buffer
	if err := SweepJSON(&liveBuf, AggregateSweep(results)); err != nil {
		t.Fatal(err)
	}
	if err := SweepJSON(&restoredBuf, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveBuf.Bytes(), restoredBuf.Bytes()) {
		t.Error("restored aggregate differs from live run")
	}
}

// TestExperimentEntryPoints checks the re-exported experiment functions.
func TestExperimentEntryPoints(t *testing.T) {
	rows, err := Table1()
	if err != nil || len(rows) != 9 {
		t.Fatalf("Table1: %v rows, err %v", len(rows), err)
	}
	r, err := Fig3Fairness()
	if err != nil {
		t.Fatal(err)
	}
	if r.INRPJain != 1 {
		t.Errorf("Fig3 INRP Jain = %v, want 1", r.INRPJain)
	}
}
