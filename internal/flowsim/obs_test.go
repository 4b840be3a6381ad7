package flowsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestObsDoesNotChangeResults pins the determinism contract on the fluid
// simulator: the INRP Fig. 3 run (detours + allocator churn) must yield
// an identical Result with metrics and tracing enabled.
func TestObsDoesNotChangeResults(t *testing.T) {
	size := units.ByteSize(2_500_000)
	base := Config{Graph: topo.Fig3(), Policy: INRP, Flows: twoFlowsFig3(size)}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New("flowsim-test")
	var traced bytes.Buffer
	cfg := base
	cfg.Graph = topo.Fig3()
	cfg.Obs = reg
	cfg.Trace = obs.NewTrace(&traced, 1)
	cfg.TraceLabel = "fig3-flow"
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented result diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if err := cfg.Trace.Flush(); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["flowsim_flows_admitted"]; got != int64(instrumented.Total) {
		t.Errorf("admitted = %d, want %d", got, instrumented.Total)
	}
	if got := snap.Counters["flowsim_flows_finished"]; got != int64(instrumented.Completed) {
		t.Errorf("finished = %d, want %d", got, instrumented.Completed)
	}
	if snap.Counters["flowsim_alloc_fills"] == 0 {
		t.Error("allocator fills never counted")
	}
	if got := snap.Gauges["flowsim_flows_active"]; got != 0 {
		t.Errorf("final active gauge = %d, want 0", got)
	}
	if snap.Gauges["flowsim_flow_classes"] == 0 {
		t.Error("flow-class gauge never set")
	}
	if len(snap.Series["flowsim_flows_active_series"]) == 0 {
		t.Error("active-flow sampler empty")
	}
	out := traced.String()
	if strings.Count(out, `"event":"flow_admit"`) != instrumented.Total {
		t.Errorf("trace admit events != %d:\n%s", instrumented.Total, out)
	}
	if strings.Count(out, `"event":"flow_finish"`) != instrumented.Completed {
		t.Errorf("trace finish events != %d:\n%s", instrumented.Completed, out)
	}
	if !strings.Contains(out, `"scenario":"fig3-flow"`) {
		t.Error("trace events missing scenario label")
	}
}

// TestObsBackpressureCounter drives an overload that cannot be fully
// detoured and checks the allocator's back-pressure instrument agrees
// with the Result counter.
func TestObsBackpressureCounter(t *testing.T) {
	g := topo.Line(3)
	var flows []workload.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.Flow{ID: i, Src: 0, Dst: 2, Size: 125 * units.MB, Arrival: 0})
	}
	reg := obs.New("bp-test")
	res, err := Run(Config{
		Graph:     g,
		Policy:    INRP,
		Flows:     flows,
		Horizon:   2 * time.Second,
		DemandCap: 10 * units.Gbps, // oversubscribe the line
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["flowsim_backpressure_events"], int64(res.Backpressured); got != want {
		t.Errorf("backpressure counter = %d, want %d (Result)", got, want)
	}
}

// TestObsPoolRounds checks the pooling fixpoint's early exit through its
// counter: on an uncongested Exodus run (demand-capped flows far below
// link capacity) most allocations find no saturated arc, so the INRP
// allocator must run fewer fills than PoolingRounds per allocation. The
// counter only observes: the Result equals an uninstrumented run's.
func TestObsPoolRounds(t *testing.T) {
	cfg := Config{
		Graph:     topo.MustBuildISP(topo.Exodus),
		Policy:    INRP,
		DemandCap: 100 * units.Mbps,
		Horizon:   2 * time.Second,
	}
	cfg.Graph.SetAllCapacities(10 * units.Gbps)
	cfg.Flows = benchFlows(cfg.Graph, 200)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New("pool-rounds")
	cfg.Obs = reg
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented result diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	snap := reg.Snapshot()
	allocs, rounds := snap.Counters["flowsim_alloc_fills"], snap.Counters["flowsim_pool_rounds"]
	t.Logf("alloc_fills %d, pool_rounds %d", allocs, rounds)
	if allocs == 0 || rounds < allocs {
		t.Fatalf("pool_rounds = %d with alloc_fills = %d: every allocation fills at least once", rounds, allocs)
	}
	if rounds >= 4*allocs {
		t.Fatalf("pool_rounds = %d ≥ PoolingRounds × alloc_fills = %d: the fixpoint never exits early", rounds, 4*allocs)
	}
	if creep := snap.Counters["flowsim_pool_creep"]; creep != 0 {
		t.Fatalf("pool_creep = %d on an uncongested run, want 0", creep)
	}
}

// TestAllocatorSteadyStateAllocs pins the allocator's zero-allocation
// steady state with the registry disabled and live: the counters are
// nil-safe no-ops without a registry and plain atomics with one.
func TestAllocatorSteadyStateAllocs(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.New("allocs")} {
		g := topo.MustBuildISP(topo.Exodus)
		g.SetAllCapacities(450 * units.Mbps)
		r := &runner{cfg: Config{Graph: g, Policy: INRP, PoolingRounds: 4, Obs: reg}, g: g}
		r.cfg.Planner = core.DefaultPlannerConfig()
		r.init()
		for _, f := range benchFlows(g, 200) {
			if err := r.admit(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		r.allocateClasses() // warm the planner cache and scratch
		if n := testing.AllocsPerRun(20, func() { r.allocateClasses() }); n != 0 {
			t.Errorf("registry %v: %v allocs per allocation, want 0", reg != nil, n)
		}
	}
}

// TestObsPoolCreep checks the round-cap counter of the pooling fixpoint
// on a congested Exodus run, where elastic flows keep moving the grants:
// some allocations must use up PoolingRounds without converging, and
// the counter only observes (TestObsPoolRounds pins it at 0 on an
// uncongested run).
func TestObsPoolCreep(t *testing.T) {
	cfg := Config{
		Graph:   topo.MustBuildISP(topo.Exodus),
		Policy:  INRP,
		Horizon: 2 * time.Second,
	}
	cfg.Graph.SetAllCapacities(450 * units.Mbps)
	cfg.Flows = benchFlows(cfg.Graph, 200)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New("pool-creep")
	cfg.Obs = reg
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("instrumented result diverged:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	snap := reg.Snapshot()
	allocs, creep := snap.Counters["flowsim_alloc_fills"], snap.Counters["flowsim_pool_creep"]
	t.Logf("alloc_fills %d, pool_rounds %d, pool_creep %d", allocs, snap.Counters["flowsim_pool_rounds"], creep)
	if creep == 0 || creep > allocs {
		t.Fatalf("pool_creep = %d with alloc_fills = %d, want 0 < creep ≤ fills", creep, allocs)
	}
}
