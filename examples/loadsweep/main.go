// Loadsweep maps where in-network pooling pays off: it sweeps the offered
// load on the Tiscali topology and prints SP vs INRP network throughput
// at each point. At low load both carry everything; past saturation the
// pooled detours keep INRP ahead until the whole neighbourhood is full.
//
// The sweep runs on the scenario-sweep engine: the load × policy grid
// expands into scenarios with paired workload seeds (both policies see the
// same flows at each replica), executes on all cores, and aggregates
// replica means — the old hand-rolled serial loop, minus the hand-rolling.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/sweep"
	"repro/internal/units"
)

func main() {
	const (
		masterSeed = 1
		replicas   = 3
	)
	loads := []string{"60", "120", "180", "240", "300"}
	// SeedAxes("flows") pairs the workload seed across the policy axis:
	// SP and INRP are compared on identical flows at each replica.
	grid := sweep.NewGrid().
		Axis("flows", loads...).
		Axis("policy", "SP", "INRP").
		SeedAxes("flows")
	scenarios := grid.Expand(masterSeed, replicas,
		func(pt sweep.Point, replica int, seed int64) sweep.RunFunc {
			spec := sweep.FlowSpec{
				ISP:       "Tiscali (EU)",
				Capacity:  450 * units.Mbps,
				MeanSize:  150 * units.MB,
				DemandCap: 300 * units.Mbps,
				Horizon:   8 * time.Second,
			}
			fmt.Sscanf(pt.Get("flows"), "%d", &spec.Flows)
			spec.Policy = sweep.MustParsePolicy(pt.Get("policy"))
			return spec.Run(seed)
		})

	results := (&sweep.Runner{}).Run(context.Background(), scenarios)
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	aggs := sweep.Aggregated(results)
	find := func(flows, policy string) *sweep.Aggregate {
		for i := range aggs {
			if aggs[i].Point.Get("flows") == flows && aggs[i].Point.Get("policy") == policy {
				return &aggs[i]
			}
		}
		log.Fatalf("no aggregate for flows=%s policy=%s", flows, policy)
		return nil
	}

	fmt.Printf("%-8s %-14s %-14s %-8s\n", "flows", "SP", "INRP", "gain")
	for _, f := range loads {
		sp := find(f, "SP").Summary("demand_satisfied")
		inrp := find(f, "INRP").Summary("demand_satisfied")
		gain := 0.0
		if sp.Mean() > 0 {
			gain = inrp.Mean()/sp.Mean() - 1
		}
		fmt.Printf("%-8s %.3f ±%.3f   %.3f ±%.3f   %+.1f%%\n",
			f, sp.Mean(), sp.Std(), inrp.Mean(), inrp.Std(), 100*gain)
	}
}
