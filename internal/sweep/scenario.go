package sweep

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/flowsim"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

// FlowSpec describes one flow-level simulation scenario: the ISP-build +
// workload recipe shared by cmd/sweep, examples/loadsweep and the Fig. 4
// harness. Build the spec, then call Run for a sweep scenario body or
// Simulate for a one-off run with the full flowsim.Result.
type FlowSpec struct {
	// ISP selects the calibrated Table 1 topology.
	ISP topo.ISP
	// Capacity overrides every link's capacity; 0 keeps the built-in
	// capacities.
	Capacity units.BitRate
	// Policy is the routing policy under test.
	Policy flowsim.Policy
	// Flows is the number of generated flows.
	Flows int
	// Lambda is the Poisson arrival rate (flows/s); 0 derives Flows/4 so
	// arrivals span ≈4s of virtual time at any load level.
	Lambda float64
	// MeanSize is the mean of the bounded-Pareto (α=1.5) flow sizes on
	// [MeanSize/20, MeanSize×8]; 0 defaults to 150MB.
	MeanSize units.ByteSize
	// DemandCap bounds each flow's rate; 0 means elastic flows.
	DemandCap units.BitRate
	// Horizon stops the simulation; 0 runs to completion.
	Horizon time.Duration

	// Obs, Trace and TraceLabel thread observability into the simulator
	// (see flowsim.Config). All optional; scenarios expanded from one grid
	// typically share a single registry and trace, with TraceLabel set to
	// the scenario name. Metrics never change simulation results.
	Obs        *obs.Registry
	Trace      *obs.Trace
	TraceLabel string
}

// Graph builds the spec's topology with its capacity override applied.
func (s FlowSpec) Graph() (*topo.Graph, error) {
	g, err := topo.BuildISP(s.ISP)
	if err != nil {
		return nil, err
	}
	if s.Capacity > 0 {
		g.SetAllCapacities(s.Capacity)
	}
	return g, nil
}

// Workload generates the spec's flow trace on g from one seed: Poisson
// arrivals, bounded-Pareto sizes and a degree-weighted gravity matrix, each
// on an independent sub-stream of seed.
func (s FlowSpec) Workload(g *topo.Graph, seed int64) []workload.Flow {
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = float64(s.Flows) / 4
	}
	mean := s.MeanSize
	if mean == 0 {
		mean = 150 * units.MB
	}
	return workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(lambda, workload.SplitSeed(seed, 0)),
		Sizes:    workload.NewBoundedPareto(1.5, mean/20, mean*8, workload.SplitSeed(seed, 1)),
		Matrix:   workload.NewGravity(g, workload.SplitSeed(seed, 2)),
		Count:    s.Flows,
	})
}

// FieldError reports the spec field a Validate call rejected, so a caller
// that filled the spec from flags can name the flag at fault.
type FieldError struct {
	// Field is the Go field path, e.g. "EgressRate" or "Outage.Up".
	Field  string
	Reason string
}

func (e *FieldError) Error() string { return "sweep: invalid " + e.Field + ": " + e.Reason }

// nonNegative is one field of a spec's sign check.
type nonNegative struct {
	field string
	v     float64
}

// firstNegative returns a FieldError for the first field below zero (or
// NaN), nil when all are valid. It allocates only on failure.
func firstNegative(fields ...nonNegative) error {
	for _, f := range fields {
		if !(f.v >= 0) {
			return &FieldError{Field: f.field, Reason: "must not be negative"}
		}
	}
	return nil
}

// Validate rejects a spec no run can use: a non-positive flow count or a
// negative capacity, demand, size, arrival rate or horizon. Simulate calls
// it, so every caller meets the same boundary.
func (s FlowSpec) Validate() error {
	if s.Flows <= 0 {
		return &FieldError{Field: "Flows", Reason: "must be positive"}
	}
	return firstNegative(
		nonNegative{"Capacity", float64(s.Capacity)},
		nonNegative{"Lambda", s.Lambda},
		nonNegative{"MeanSize", float64(s.MeanSize)},
		nonNegative{"DemandCap", float64(s.DemandCap)},
		nonNegative{"Horizon", float64(s.Horizon)},
	)
}

// Simulate validates the spec, builds the topology and workload from seed
// and runs flowsim, returning the full result. Trace generation is
// memoized across calls: scenarios handed the same workload seed at the
// same spec (a grid whose SeedAxes exclude the policy axis) share one
// generated trace instead of regenerating it per policy.
func (s FlowSpec) Simulate(seed int64) (*flowsim.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return flowsim.Run(flowsim.Config{
		Graph:      g,
		Policy:     s.Policy,
		Flows:      s.cachedWorkload(g, seed),
		Horizon:    s.Horizon,
		DemandCap:  s.DemandCap,
		Obs:        s.Obs,
		Trace:      s.Trace,
		TraceLabel: s.TraceLabel,
	})
}

// Run returns a RunFunc executing the spec with the given seed, for use as
// a Scenario body.
func (s FlowSpec) Run(seed int64) RunFunc {
	return func(ctx context.Context) (Metrics, error) {
		if err := ctx.Err(); err != nil {
			return Metrics{}, err
		}
		r, err := s.Simulate(seed)
		if err != nil {
			return Metrics{}, err
		}
		return FlowMetrics(r), nil
	}
}

// ParsePolicy maps a policy-axis value to its flowsim policy,
// case-insensitively — the one decoder for every sweep with a policy axis.
func ParsePolicy(s string) (flowsim.Policy, error) {
	switch strings.ToLower(s) {
	case "sp":
		return flowsim.SP, nil
	case "ecmp":
		return flowsim.ECMP, nil
	case "inrp":
		return flowsim.INRP, nil
	}
	return 0, fmt.Errorf("sweep: unknown policy %q (known: sp, ecmp, inrp)", s)
}

// MustParsePolicy is ParsePolicy for grid-axis values already validated at
// grid construction.
func MustParsePolicy(s string) flowsim.Policy {
	p, err := ParsePolicy(s)
	if err != nil {
		panic(err)
	}
	return p
}

// FlowMetrics converts a flowsim result into sweep metrics. Scalars cover
// the Fig. 4 headline numbers; the "stretch" sample set pools the per-flow
// INRP path stretch for CDF summaries.
func FlowMetrics(r *flowsim.Result) Metrics {
	m := NewMetrics()
	m.Set("demand_satisfied", r.DemandSatisfied)
	m.Set("goodput_ratio", r.GoodputRatio)
	m.Set("utilization", r.Utilization)
	m.Set("jain", r.Jain)
	m.Set("fct_mean_s", r.FCTSeconds.Mean())
	m.Set("completed", float64(r.Completed))
	if r.Policy == flowsim.INRP {
		m.Set("detoured_share", r.DetouredShare)
		m.AddSamples("stretch", r.Stretch...)
	}
	return m
}
