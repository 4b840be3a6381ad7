package experiments

import (
	"fmt"
	"time"

	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// Fig4Config parameterises the Figure 4 flow-level evaluation.
//
// The workload models the paper's Poisson flow arrivals: flows with a
// fixed rate demand (CBR-like elastic-capped transfers) arrive over the
// horizon and leave when their bytes are delivered. "Network throughput"
// is the time-averaged fraction of aggregate demand the network carries —
// under load, single-path routing leaves demand stranded at hotspots
// while pooling shifts it onto detours.
type Fig4Config struct {
	// ISPs are the topologies to run (default: the paper's Telstra,
	// Exodus, Tiscali).
	ISPs []topo.ISP
	// TargetActive is the average number of concurrently active flows.
	// When zero it is derived per topology from LoadRatio, which keeps
	// the three ISPs equally loaded relative to their capacity.
	TargetActive int
	// LoadRatio is the offered demand as a fraction of aggregate link
	// capacity, used when TargetActive is zero (default 0.55 — the
	// overload regime where Fig. 4a's bars separate).
	LoadRatio float64
	// DemandCap is each flow's rate demand (default 300Mbps).
	DemandCap units.BitRate
	// MeanFlowSize for the bounded-Pareto size distribution (default
	// 150MB ⇒ ~4s mean lifetime at full demand).
	MeanFlowSize units.ByteSize
	// Horizon bounds each run's virtual time (default 15s).
	Horizon time.Duration
	// Seeds is the number of independent workload seeds averaged
	// (default 3).
	Seeds int
	// UniformCapacity overrides every link's capacity (default 450Mbps).
	// The paper's flow-level simulation places no bottlenecks at the
	// edges, so contention — and pooling opportunity — sits in the core;
	// uniform capacities reproduce that regime.
	UniformCapacity units.BitRate
	// Workers bounds the scenario parallelism of the sweep (default
	// runtime.GOMAXPROCS). Results are identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, streams every completed scenario to
	// this JSONL file and restores scenarios already present before
	// running, so a killed run resumes instead of restarting.
	Checkpoint string
	// Obs and Trace thread observability into every scenario (see
	// sweep.FlowSpec); each scenario traces under its canonical sweep
	// name. Metrics never change the figure: the golden report tests run
	// the experiment instrumented and require byte-identical output.
	Obs   *obs.Registry
	Trace *obs.Trace
}

// DefaultFig4Config returns the configuration used for EXPERIMENTS.md.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{}
}

func (c *Fig4Config) applyDefaults() {
	if len(c.ISPs) == 0 {
		c.ISPs = topo.Fig4ISPs()
	}
	if c.LoadRatio == 0 {
		c.LoadRatio = 0.55
	}
	if c.DemandCap == 0 {
		c.DemandCap = 300 * units.Mbps
	}
	if c.MeanFlowSize == 0 {
		c.MeanFlowSize = 150 * units.MB
	}
	if c.Horizon == 0 {
		c.Horizon = 15 * time.Second
	}
	if c.Seeds == 0 {
		c.Seeds = 3
	}
	if c.UniformCapacity == 0 {
		c.UniformCapacity = 450 * units.Mbps
	}
}

// Fig4aPaper holds the network-throughput bars of the paper's Figure 4a,
// read off the published figure (approximate to ±0.02): for each
// topology, SP < ECMP < URP(INRP), with INRP 9–15% above SP.
var Fig4aPaper = map[topo.ISP]map[flowsim.Policy]float64{
	topo.Telstra: {flowsim.SP: 0.52, flowsim.ECMP: 0.56, flowsim.INRP: 0.60},
	topo.Exodus:  {flowsim.SP: 0.69, flowsim.ECMP: 0.73, flowsim.INRP: 0.78},
	topo.Tiscali: {flowsim.SP: 0.74, flowsim.ECMP: 0.79, flowsim.INRP: 0.85},
}

// Fig4TopoResult is the outcome for one topology: mean network throughput
// per policy (Fig 4a bars) and the INRP stretch samples (Fig 4b CDF).
type Fig4TopoResult struct {
	ISP        topo.ISP
	Throughput map[flowsim.Policy]float64
	// GainOverSP is INRP/SP − 1, the paper's 9–15% claim.
	GainOverSP float64
	// Stretch pools the per-flow INRP path stretch across seeds.
	Stretch []float64
	// Jain is the mean INRP fairness index across seeds.
	Jain float64
}

// Fig4 runs the flow-level evaluation of the paper's Figure 4: Poisson
// flow arrivals on the three ISP topologies under SP, ECMP and INRP. The
// ISP × policy × seed grid executes on the sweep engine's worker pool; the
// workload seed is shared across the policy axis so every policy is
// measured on the same flows at each replica. With cfg.Checkpoint set,
// completed scenarios stream to disk and a rerun resumes instead of
// restarting.
func Fig4(cfg Fig4Config) ([]Fig4TopoResult, error) {
	cfg.applyDefaults()
	scenarios, label, err := fig4Scenarios(cfg)
	if err != nil {
		return nil, err
	}
	aggs, failed, err := runExperiment(cfg.Workers, cfg.Obs, cfg.Checkpoint, label, scenarios)
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("fig4 %w", failed[0].Err)
	}
	return fig4Collect(cfg, aggs)
}

// fig4Scenarios expands the Figure 4 grid and derives the config label
// binding its checkpoints: every non-axis parameter that changes the
// physics, so a rerun can only resume a run of the same configuration.
// cfg must already have defaults applied.
func fig4Scenarios(cfg Fig4Config) ([]sweep.Scenario, string, error) {
	specs := make(map[topo.ISP]sweep.FlowSpec, len(cfg.ISPs))
	for _, isp := range cfg.ISPs {
		spec, err := fig4Spec(isp, cfg)
		if err != nil {
			return nil, "", err
		}
		specs[isp] = spec
	}

	isps := make([]string, len(cfg.ISPs))
	for i, isp := range cfg.ISPs {
		isps[i] = string(isp)
	}
	grid := sweep.NewGrid().
		Axis("isp", isps...).
		Axis("policy", "SP", "ECMP", "INRP").
		SeedAxes("isp") // pair the workload across the policy axis
	scenarios := grid.Expand(0, cfg.Seeds, func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
		spec := specs[topo.ISP(pt.Get("isp"))]
		spec.Policy = sweep.MustParsePolicy(pt.Get("policy"))
		spec.Obs = cfg.Obs
		spec.Trace = cfg.Trace
		spec.TraceLabel = sweep.ScenarioName(pt, replica)
		return spec.Run(seed)
	})
	label := fmt.Sprintf("fig4 target=%d load=%g demand=%s size=%s horizon=%s capacity=%s",
		cfg.TargetActive, cfg.LoadRatio, cfg.DemandCap, cfg.MeanFlowSize, cfg.Horizon, cfg.UniformCapacity)
	return scenarios, label, nil
}

// fig4Collect folds per-point aggregates into per-topology figure rows.
func fig4Collect(cfg Fig4Config, aggs []sweep.Aggregate) ([]Fig4TopoResult, error) {
	byISP := map[topo.ISP]*Fig4TopoResult{}
	var out []Fig4TopoResult
	for _, isp := range cfg.ISPs {
		out = append(out, Fig4TopoResult{ISP: isp, Throughput: map[flowsim.Policy]float64{}})
	}
	for i := range out {
		byISP[out[i].ISP] = &out[i]
	}
	for _, a := range aggs {
		res := byISP[topo.ISP(a.Point.Get("isp"))]
		pol := sweep.MustParsePolicy(a.Point.Get("policy"))
		res.Throughput[pol] = a.Mean("demand_satisfied")
		if pol == flowsim.INRP {
			res.Stretch = a.Samples["stretch"]
			res.Jain = a.Mean("jain")
		}
	}
	for i := range out {
		if sp := out[i].Throughput[flowsim.SP]; sp > 0 {
			out[i].GainOverSP = out[i].Throughput[flowsim.INRP]/sp - 1
		}
	}
	return out, nil
}

// fig4Spec turns the Fig. 4 config into one topology's sweep.FlowSpec:
// arrival rate chosen so the steady-state active population is ≈
// TargetActive (Little's law with the full-demand lifetime; congestion
// stretches lifetimes, raising the effective load — which is the regime
// the experiment wants).
func fig4Spec(isp topo.ISP, cfg Fig4Config) (sweep.FlowSpec, error) {
	g, err := topo.BuildISP(isp)
	if err != nil {
		return sweep.FlowSpec{}, err
	}
	target := cfg.TargetActive
	if target == 0 {
		// Offered demand = LoadRatio × aggregate one-direction capacity.
		target = int(cfg.LoadRatio * float64(g.NumLinks()) * float64(cfg.UniformCapacity) / float64(cfg.DemandCap))
		if target < 1 {
			target = 1
		}
	}
	meanLife := cfg.MeanFlowSize.Bits() / float64(cfg.DemandCap) // seconds
	lambda := float64(target) / meanLife
	count := int(lambda * cfg.Horizon.Seconds())
	if count < 1 {
		count = 1
	}
	// Rescale arrivals so the offered byte rate matches the target even
	// though the bounded Pareto's mean differs from MeanFlowSize.
	lambda *= float64(cfg.MeanFlowSize) /
		workload.NewBoundedPareto(1.5, cfg.MeanFlowSize/20, cfg.MeanFlowSize*8, 0).Mean()
	return sweep.FlowSpec{
		ISP:       isp,
		Capacity:  cfg.UniformCapacity,
		Flows:     count,
		Lambda:    lambda,
		MeanSize:  cfg.MeanFlowSize,
		DemandCap: cfg.DemandCap,
		Horizon:   cfg.Horizon,
	}, nil
}

// Fig4aReport renders the Figure 4a bars, paper vs measured.
func Fig4aReport(results []Fig4TopoResult) *report.Table {
	t := report.New("Figure 4a — Network throughput (paper → measured)",
		"topology", "SP", "ECMP", "INRP(URP)", "INRP/SP gain")
	for _, r := range results {
		paper := Fig4aPaper[r.ISP]
		cell := func(p flowsim.Policy) string {
			if paper == nil {
				return report.F3(r.Throughput[p])
			}
			return report.F3(paper[p]) + " → " + report.F3(r.Throughput[p])
		}
		t.AddRow(string(r.ISP), cell(flowsim.SP), cell(flowsim.ECMP), cell(flowsim.INRP),
			fmt.Sprintf("%+.1f%%", 100*r.GainOverSP))
	}
	return t
}

// Fig4bPaper summarises the paper's Figure 4b: at least half the flows
// take no detour (CDF at stretch 1.0 ≥ ~0.5) and the stretch tail stays
// below ≈1.35.
var Fig4bPaper = struct {
	CDFAtOne   float64
	MaxStretch float64
}{CDFAtOne: 0.5, MaxStretch: 1.35}

// Fig4bCurve converts a topology's stretch samples into CDF points.
func Fig4bCurve(r Fig4TopoResult, maxPoints int) []stats.Point {
	return stats.NewECDF(r.Stretch).Points(maxPoints)
}

// Fig4bReport renders key quantiles of the per-topology stretch CDFs.
func Fig4bReport(results []Fig4TopoResult) *report.Table {
	t := report.New("Figure 4b — INRP path stretch CDF (key points)",
		"topology", "F(1.0)", "p90", "p99", "max", "samples")
	for _, r := range results {
		e := stats.NewECDF(r.Stretch)
		t.AddRow(string(r.ISP),
			report.F3(e.Eval(1.0+1e-9)),
			report.F3(e.Quantile(0.90)),
			report.F3(e.Quantile(0.99)),
			report.F3(e.Max()),
			fmt.Sprintf("%d", e.N()))
	}
	return t
}
