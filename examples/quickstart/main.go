// Quickstart: build a paper topology, run single-path routing and
// in-network resource pooling over the same workload, and print the gain.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/flowsim"
	"repro/internal/topo"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	// 1. Build the calibrated Exodus topology from the paper's Table 1
	//    and level its link capacities (the paper's Fig. 4 regime keeps
	//    bottlenecks out of the edge).
	g, err := topo.BuildISP("Exodus (US)")
	if err != nil {
		log.Fatal(err)
	}
	g.SetAllCapacities(450 * units.Mbps)

	// 2. Generate a Poisson workload: 200 flows, heavy-tailed sizes,
	//    degree-weighted (gravity) endpoints.
	flows := workload.Generate(workload.Spec{
		Arrivals: workload.NewPoisson(30, 1),
		Sizes:    workload.NewBoundedPareto(1.5, 10*units.MB, 1200*units.MB, 2),
		Matrix:   workload.NewGravity(g, 3),
		Count:    200,
	})

	// 3. Run the same workload under SP and INRP.
	for _, policy := range []flowsim.Policy{flowsim.SP, flowsim.INRP} {
		res, err := flowsim.Run(flowsim.Config{
			Graph:     g,
			Policy:    policy,
			Flows:     flows,
			Horizon:   10 * time.Second,
			DemandCap: 300 * units.Mbps,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s network throughput %.3f  delivered %v  fairness %.3f\n",
			policy, res.DemandSatisfied, res.Delivered, res.Jain)
	}
}
