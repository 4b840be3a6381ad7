package sweep

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
)

// The golden fixtures below pin the exact Table/CSV/JSON bytes of a flow
// sweep and a chunk sweep, captured from the seed implementations before
// the flow-class allocator and the pooled-object DES landed. They are the
// determinism contract of the performance work: any refactor of the
// simulation hot paths must keep rendered output byte-identical.
//
// Regenerate (only when an intentional physics change lands) with:
//
//	go test ./internal/sweep -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden sweep output fixtures")

// goldenFlowScenarios is a reduced Figure 4-shaped grid: every policy over
// identical workloads at two loads and two replicas. reg and tr, when
// non-nil, instrument every scenario — the golden-with-obs tests use them
// to prove instrumentation cannot move the fixture bytes.
func goldenFlowScenarios(reg *obs.Registry, tr *obs.Trace) []Scenario {
	grid := NewGrid().
		Axis("isp", string(topo.Exodus)).
		Axis("flows", "30", "60").
		Axis("policy", "sp", "ecmp", "inrp").
		SeedAxes("isp", "flows")
	return grid.Expand(7, 2, func(pt Point, replica int, seed int64) RunFunc {
		n := 30
		if pt.Get("flows") == "60" {
			n = 60
		}
		spec := FlowSpec{
			ISP:        topo.Exodus,
			Capacity:   450 * units.Mbps,
			Policy:     MustParsePolicy(pt.Get("policy")),
			Flows:      n,
			MeanSize:   50 * units.MB,
			DemandCap:  300 * units.Mbps,
			Horizon:    4 * time.Second,
			Obs:        reg,
			Trace:      tr,
			TraceLabel: ScenarioName(pt, replica),
		}
		return spec.Run(seed)
	})
}

// goldenChunkScenarios is a reduced custody-chain grid: all three
// transports at two load levels. reg and tr instrument like in
// goldenFlowScenarios.
func goldenChunkScenarios(reg *obs.Registry, tr *obs.Trace) []Scenario {
	grid := NewGrid().
		Axis("transport", "inrpp", "aimd", "arc").
		Axis("transfers", "1", "3").
		SeedAxes("transfers")
	return grid.Expand(7, 2, func(pt Point, replica int, seed int64) RunFunc {
		transfers := 1
		if pt.Get("transfers") == "3" {
			transfers = 3
		}
		spec := ChunkSpec{
			Transport:   MustParseTransport(pt.Get("transport")),
			IngressRate: units.Gbps,
			EgressRate:  200 * units.Mbps,
			ChunkSize:   100 * units.KB,
			Custody:     50 * units.MB,
			Buffer:      2 * units.MB,
			Transfers:   transfers,
			Chunks:      200,
			Horizon:     2 * time.Second,
			Ti:          10 * time.Millisecond,
			Obs:         reg,
			Trace:       tr,
			TraceLabel:  ScenarioName(pt, replica),
		}
		return spec.Run(seed)
	})
}

// goldenChurnScenarios is the disruption analogue of the chunk grid: all
// three transports over a churned egress link at two outage rates. Seeds
// derive from the outage axis alone, so every transport replays the same
// outage trace per cell — and the fixture pins the churn machinery's
// determinism (seeded outage processes, custody requeue, in-flight drop)
// byte-for-byte.
func goldenChurnScenarios(reg *obs.Registry, tr *obs.Trace) []Scenario {
	grid := NewGrid().
		Axis("transport", "inrpp", "aimd", "arc").
		Axis("outage_up", "400ms", "150ms").
		SeedAxes("outage_up")
	return grid.Expand(7, 2, func(pt Point, replica int, seed int64) RunFunc {
		up, err := time.ParseDuration(pt.Get("outage_up"))
		if err != nil {
			panic(err)
		}
		spec := ChunkSpec{
			Transport:   MustParseTransport(pt.Get("transport")),
			IngressRate: units.Gbps,
			EgressRate:  200 * units.Mbps,
			ChunkSize:   100 * units.KB,
			Custody:     50 * units.MB,
			Buffer:      2 * units.MB,
			Transfers:   1,
			Chunks:      200,
			Horizon:     2 * time.Second,
			Ti:          10 * time.Millisecond,
			Outage: topo.OutageSpec{
				Kind: topo.OutageExp,
				Up:   up,
				Down: 100 * time.Millisecond,
			},
			Obs:        reg,
			Trace:      tr,
			TraceLabel: ScenarioName(pt, replica),
		}
		return spec.Run(seed)
	})
}

// renderGolden runs the scenarios and renders all three output formats
// the way cmd/sweep does. A non-nil reg additionally instruments the
// runner itself.
func renderGolden(t *testing.T, scenarios []Scenario, reg *obs.Registry) (table, csv, jsonOut []byte) {
	t.Helper()
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	runner := &Runner{Workers: 4, Obs: reg}
	failed, err := runner.Accumulate(context.Background(), scenarios, acc)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) > 0 {
		t.Fatalf("scenario failed: %v", failed[0].Err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb, jb bytes.Buffer
	if err := Table("golden", aggs).Render(&tb); err != nil {
		t.Fatal(err)
	}
	if err := CSV(&cb, aggs); err != nil {
		t.Fatal(err)
	}
	if err := JSON(&jb, aggs); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes(), jb.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output bytes differ from golden fixture\ngot:\n%s\nwant:\n%s",
			name, clip(got), clip(want))
	}
}

func clip(b []byte) string {
	const max = 4000
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// TestGoldenFlowSweep pins the rendered bytes of a flow-mode sweep
// against the seed allocator's output.
func TestGoldenFlowSweep(t *testing.T) {
	table, csv, jsonOut := renderGolden(t, goldenFlowScenarios(nil, nil), nil)
	checkGolden(t, "golden_flow_table.txt", table)
	checkGolden(t, "golden_flow.csv", csv)
	checkGolden(t, "golden_flow.json", jsonOut)
}

// TestGoldenChunkSweep pins the rendered bytes of a chunk-mode sweep
// against the seed DES's output.
func TestGoldenChunkSweep(t *testing.T) {
	table, csv, jsonOut := renderGolden(t, goldenChunkScenarios(nil, nil), nil)
	checkGolden(t, "golden_chunk_table.txt", table)
	checkGolden(t, "golden_chunk.csv", csv)
	checkGolden(t, "golden_chunk.json", jsonOut)
}

// TestGoldenFlowSweepWithObs re-runs the flow sweep fully instrumented —
// shared registry, full-rate event trace, instrumented runner — and
// requires the rendered bytes to still match the uninstrumented fixtures:
// metrics observe the simulation, they never influence it.
func TestGoldenFlowSweepWithObs(t *testing.T) {
	reg := obs.New("golden-flow")
	tr := obs.NewTrace(io.Discard, 1)
	table, csv, jsonOut := renderGolden(t, goldenFlowScenarios(reg, tr), reg)
	checkGolden(t, "golden_flow_table.txt", table)
	checkGolden(t, "golden_flow.csv", csv)
	checkGolden(t, "golden_flow.json", jsonOut)
	snap := reg.Snapshot()
	if snap.Counters["flowsim_flows_admitted"] == 0 {
		t.Error("instrumented sweep recorded no admissions; registry not threaded")
	}
	if snap.Counters["sweep_scenarios_completed"] != 12 {
		t.Errorf("sweep_scenarios_completed = %d, want 12", snap.Counters["sweep_scenarios_completed"])
	}
}

// TestGoldenChunkSweepWithObs is the chunk-mode analogue: the DES-level
// instrumentation (including the extra custody sampling tick events) must
// leave the fixtures byte-identical.
func TestGoldenChunkSweepWithObs(t *testing.T) {
	reg := obs.New("golden-chunk")
	tr := obs.NewTrace(io.Discard, 1)
	table, csv, jsonOut := renderGolden(t, goldenChunkScenarios(reg, tr), reg)
	checkGolden(t, "golden_chunk_table.txt", table)
	checkGolden(t, "golden_chunk.csv", csv)
	checkGolden(t, "golden_chunk.json", jsonOut)
	snap := reg.Snapshot()
	if snap.Counters["chunknet_chunks_delivered"] == 0 {
		t.Error("instrumented sweep recorded no deliveries; registry not threaded")
	}
	if snap.Counters["des_events_fired"] == 0 {
		t.Error("kernel counters not bound")
	}
}

// TestGoldenChurnSweep pins the rendered bytes of a disrupted chunk
// sweep: the seeded outage processes, custody requeue and in-flight drop
// accounting must all replay exactly.
func TestGoldenChurnSweep(t *testing.T) {
	table, csv, jsonOut := renderGolden(t, goldenChurnScenarios(nil, nil), nil)
	checkGolden(t, "golden_churn_table.txt", table)
	checkGolden(t, "golden_churn.csv", csv)
	checkGolden(t, "golden_churn.json", jsonOut)
}

// TestGoldenChurnWorkerInvariance re-renders the churn sweep
// single-threaded: churn realizations are seeded per scenario, so the
// bytes cannot depend on the worker count.
func TestGoldenChurnWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scenarios := goldenChurnScenarios(nil, nil)
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	runner := &Runner{Workers: 1}
	if _, err := runner.Accumulate(context.Background(), scenarios, acc); err != nil {
		t.Fatal(err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := CSV(&cb, aggs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_churn.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), want) {
		t.Error("single-worker churn run renders different bytes than golden fixture")
	}
}

// TestGoldenWorkerInvariance re-renders the flow sweep single-threaded:
// output bytes must not depend on the worker count.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scenarios := goldenFlowScenarios(nil, nil)
	acc := NewAccumulator(AccumulatorConfig{}, scenarios)
	runner := &Runner{Workers: 1}
	if _, err := runner.Accumulate(context.Background(), scenarios, acc); err != nil {
		t.Fatal(err)
	}
	aggs, err := acc.Aggregates()
	if err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := CSV(&cb, aggs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_flow.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), want) {
		t.Error("single-worker run renders different bytes than golden fixture")
	}
}
