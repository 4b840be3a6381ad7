// Command flowsim runs a single flow-level simulation (the Figure 4
// machinery) with configurable topology, policy and load, and prints the
// resulting metrics.
//
// Usage:
//
//	flowsim -isp "Exodus (US)" -policy inrp -flows 300 -demand 300Mbps \
//	        -capacity 450Mbps -horizon 10s -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/flowsim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	ispName := flag.String("isp", string(topo.Exodus), "built-in ISP topology")
	policyName := flag.String("policy", "inrp", "routing policy: sp|ecmp|inrp")
	nFlows := flag.Int("flows", 300, "number of flows")
	demandStr := flag.String("demand", "300Mbps", "per-flow rate demand (0 = elastic)")
	capStr := flag.String("capacity", "450Mbps", "uniform link capacity override (0 = keep built-in)")
	meanSizeStr := flag.String("size", "150MB", "mean flow size (bounded Pareto)")
	rate := flag.Float64("lambda", 40, "flow arrival rate (flows/s; 0 = flows/4)")
	horizon := flag.Duration("horizon", 10*time.Second, "virtual time horizon (0 = run to completion)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	policy, err := sweep.ParsePolicy(*policyName)
	if err != nil {
		fatal(err)
	}

	demand, err := units.ParseBitRate(*demandStr)
	if err != nil {
		fatal(err)
	}
	capacity, err := units.ParseBitRate(*capStr)
	if err != nil {
		fatal(err)
	}
	meanSize, err := units.ParseByteSize(*meanSizeStr)
	if err != nil {
		fatal(err)
	}

	// The topology + workload recipe is the shared sweep scenario spec, so
	// a one-off flowsim run is the same scenario a grid sweep would run.
	spec := sweep.FlowSpec{
		ISP:       topo.ISP(*ispName),
		Capacity:  capacity,
		Policy:    policy,
		Flows:     *nFlows,
		Lambda:    *rate,
		MeanSize:  meanSize,
		DemandCap: demand,
		Horizon:   *horizon,
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	g, err := spec.Graph()
	if err != nil {
		fatal(fmt.Errorf("%w (known: %v)", err, topo.ISPs()))
	}
	res, err := flowsim.Run(flowsim.Config{
		Graph:     g,
		Policy:    policy,
		Flows:     spec.Workload(g, *seed),
		Horizon:   *horizon,
		DemandCap: demand,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("topology        %s (%d nodes, %d links)\n", g.Name(), g.NumNodes(), g.NumLinks())
	fmt.Printf("policy          %s\n", res.Policy)
	fmt.Printf("flows           %d arrived, %d completed\n", res.Total, res.Completed)
	fmt.Printf("offered         %v\n", res.Offered)
	fmt.Printf("delivered       %v (goodput ratio %.3f)\n", res.Delivered, res.GoodputRatio)
	if demand > 0 {
		fmt.Printf("demand satisfied %.3f (network throughput, Fig. 4a metric)\n", res.DemandSatisfied)
	}
	fmt.Printf("utilization     %.3f\n", res.Utilization)
	fmt.Printf("mean FCT        %.3fs (min %.3fs, max %.3fs)\n",
		res.FCTSeconds.Mean(), res.FCTSeconds.Min(), res.FCTSeconds.Max())
	fmt.Printf("Jain fairness   %.3f\n", res.Jain)
	if policy == flowsim.INRP {
		e := stats.NewECDF(res.Stretch)
		fmt.Printf("detoured share  %.3f\n", res.DetouredShare)
		fmt.Printf("stretch         F(1.0)=%.3f p99=%.3f max=%.3f\n",
			e.Eval(1.0+1e-9), e.Quantile(0.99), e.Max())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flowsim:", err)
	os.Exit(1)
}
